"""True-positive / true-negative fixtures for ROB001 and ROB002."""

import textwrap

from repro.lint import lint_source, select_rules


def rob_findings(src, path="src/repro/fixture.py", rule="ROB001"):
    return lint_source(
        textwrap.dedent(src), path=path, rules=select_rules([rule])
    )


class TestROB001SwallowedException:
    def test_bare_except_pass_flagged(self):
        fs = rob_findings(
            """
            def load(path):
                try:
                    return open(path).read()
                except:
                    pass
            """
        )
        assert len(fs) == 1
        assert fs[0].rule == "ROB001"
        assert "does nothing" in fs[0].message

    def test_except_exception_pass_flagged(self):
        fs = rob_findings(
            """
            try:
                work()
            except Exception:
                pass
            """
        )
        assert len(fs) == 1

    def test_except_exception_as_name_ellipsis_flagged(self):
        fs = rob_findings(
            """
            try:
                work()
            except Exception as exc:
                ...
            """
        )
        assert len(fs) == 1

    def test_base_exception_in_tuple_flagged(self):
        fs = rob_findings(
            """
            try:
                work()
            except (ValueError, BaseException):
                pass
            """
        )
        assert len(fs) == 1

    def test_narrow_except_pass_clean(self):
        # Swallowing a specific anticipated error is a decision.
        fs = rob_findings(
            """
            try:
                os.remove(tmp)
            except OSError:
                pass
            """
        )
        assert fs == []

    def test_broad_except_with_handling_clean(self):
        fs = rob_findings(
            """
            try:
                work()
            except Exception as exc:
                log.warning("work failed: %s", exc)
            """
        )
        assert fs == []

    def test_broad_except_reraise_clean(self):
        fs = rob_findings(
            """
            try:
                work()
            except Exception:
                cleanup()
                raise
            """
        )
        assert fs == []

    def test_docstring_only_body_flagged(self):
        # A bare string "explains" but still erases the failure.
        fs = rob_findings(
            '''
            try:
                work()
            except Exception:
                "best effort"
            '''
        )
        assert len(fs) == 1

    def test_noqa_suppresses(self):
        fs = rob_findings(
            """
            try:
                work()
            except Exception:  # noqa: ROB001 - probed feature detection
                pass
            """
        )
        assert fs == []

    def test_shipped_sources_are_clean(self):
        # The fault-tolerance PR's own code must satisfy its own rule.
        from pathlib import Path

        from repro.lint import lint_paths

        repo = Path(__file__).resolve().parents[2]
        findings = [
            f
            for f in lint_paths([repo / "src" / "repro"])
            if f.rule == "ROB001"
        ]
        assert findings == []


def poll_findings(src):
    return rob_findings(src, rule="ROB002")


class TestROB002UnboundedPollLoop:
    def test_while_true_sleep_flagged(self):
        fs = poll_findings(
            """
            import time

            def watch(store):
                while True:
                    store.poll()
                    time.sleep(1.0)
            """
        )
        assert len(fs) == 1
        assert fs[0].rule == "ROB002"
        assert "hangs" in fs[0].message

    def test_bare_sleep_name_flagged(self):
        fs = poll_findings(
            """
            from time import sleep

            while True:
                check()
                sleep(0.1)
            """
        )
        assert len(fs) == 1

    def test_while_1_flagged(self):
        fs = poll_findings(
            """
            import time

            while 1:
                time.sleep(5)
            """
        )
        assert len(fs) == 1

    def test_break_escape_clean(self):
        fs = poll_findings(
            """
            import time

            def wait(q):
                while True:
                    if q.ready():
                        break
                    time.sleep(0.1)
            """
        )
        assert fs == []

    def test_return_escape_clean(self):
        fs = poll_findings(
            """
            import time

            def wait(q):
                while True:
                    if q.ready():
                        return q.value
                    time.sleep(0.1)
            """
        )
        assert fs == []

    def test_raise_on_deadline_clean(self):
        fs = poll_findings(
            """
            import time

            def wait(q, deadline):
                while True:
                    if time.time() > deadline:
                        raise TimeoutError
                    time.sleep(0.1)
            """
        )
        assert fs == []

    def test_bounded_condition_clean(self):
        fs = poll_findings(
            """
            import time

            def wait(deadline):
                while time.time() < deadline:
                    time.sleep(0.1)
            """
        )
        assert fs == []

    def test_no_sleep_clean(self):
        # A while-True without sleeping is a spin/worker loop, not a
        # poll loop; other mechanisms (deadlines, watchdogs) bound it.
        fs = poll_findings(
            """
            while True:
                item = queue.get()
                handle(item)
            """
        )
        assert fs == []

    def test_break_in_nested_loop_still_flagged(self):
        # The break belongs to the inner for loop; the outer while
        # True can still never end.
        fs = poll_findings(
            """
            import time

            def watch(jobs):
                while True:
                    for j in jobs:
                        if j.done:
                            break
                    time.sleep(1.0)
            """
        )
        assert len(fs) == 1

    def test_return_inside_nested_def_still_flagged(self):
        # The return ends the nested function, not the loop.
        fs = poll_findings(
            """
            import time

            def watch(jobs):
                while True:
                    def probe():
                        return jobs.ready()
                    probe()
                    time.sleep(1.0)
            """
        )
        assert len(fs) == 1

    def test_escape_inside_try_clean(self):
        fs = poll_findings(
            """
            import time

            def wait(q):
                while True:
                    try:
                        q.check()
                    except QueueDone:
                        break
                    time.sleep(0.1)
            """
        )
        assert fs == []

    def test_noqa_suppresses(self):
        fs = poll_findings(
            """
            import time

            while True:  # noqa: ROB002 - daemon loop, killed with process
                beat()
                time.sleep(1.0)
            """
        )
        assert fs == []

    def test_shipped_sources_are_clean(self):
        # The service PR's own poll loops must satisfy its own rule.
        from pathlib import Path

        from repro.lint import lint_paths

        repo = Path(__file__).resolve().parents[2]
        findings = [
            f
            for f in lint_paths([repo / "src" / "repro"])
            if f.rule == "ROB002"
        ]
        assert findings == []
