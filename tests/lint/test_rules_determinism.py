"""True-positive / true-negative fixtures for DET001."""

import textwrap

import pytest

from repro.lint import lint_source, select_rules


def findings(src):
    return lint_source(
        textwrap.dedent(src), path="fixture.py", rules=select_rules(["DET001"])
    )


class TestDET001UnseededRng:
    def test_np_random_module_call_flagged(self):
        fs = findings(
            """
            import numpy as np
            x = np.random.rand(10)
            """
        )
        assert len(fs) == 1
        assert fs[0].rule == "DET001"
        assert "np.random.rand" in fs[0].message

    def test_numpy_random_seed_flagged(self):
        fs = findings(
            """
            import numpy
            numpy.random.seed(0)
            vals = numpy.random.normal(size=3)
            """
        )
        assert len(fs) == 2

    def test_stdlib_random_call_flagged(self):
        fs = findings(
            """
            import random
            def jitter():
                return random.random() + random.randint(0, 5)
            """
        )
        assert len(fs) == 2

    def test_seeded_generators_clean(self):
        fs = findings(
            """
            import random
            import numpy as np
            rng = np.random.default_rng(42)
            x = rng.random(10)
            r = random.Random(7)
            y = r.randint(0, 5)
            g = np.random.Generator(np.random.PCG64(1))
            def make(seed):
                # a seed passed through a name is not second-guessed
                return (
                    np.random.default_rng(seed=seed),
                    np.random.SeedSequence(entropy=1234),
                    random.Random(seed),
                    random.SystemRandom(),
                )
            """
        )
        assert fs == []

    def test_unrelated_random_object_clean(self):
        # A local variable called `random` (no `import random`) is not
        # the stdlib module; only real module-level draws are flagged.
        fs = findings(
            """
            def fn(random):
                return random.choice([1, 2])
            """
        )
        assert fs == []

    def test_global_shuffle_choice_sample_flagged(self):
        fs = findings(
            """
            import random
            def scramble(xs):
                random.shuffle(xs)
                pick = random.choice(xs)
                few = random.sample(xs, 2)
                return pick, few
            """
        )
        assert len(fs) == 3
        assert all(f.rule == "DET001" for f in fs)

    def test_from_imported_draws_flagged(self):
        # `from random import shuffle` hides the module prefix but is
        # the same hidden-global generator
        fs = findings(
            """
            from random import choice, sample, shuffle
            def scramble(xs):
                shuffle(xs)
                return choice(xs), sample(xs, 2)
            """
        )
        assert len(fs) == 3
        assert "random.shuffle" in " ".join(f.message for f in fs)

    def test_from_imported_numpy_draws_flagged(self):
        fs = findings(
            """
            from numpy.random import rand
            x = rand(10)
            """
        )
        assert len(fs) == 1
        assert "numpy.random.rand" in fs[0].message

    def test_seeded_instance_shuffle_clean(self):
        fs = findings(
            """
            import random
            import numpy as np
            r = random.Random(7)
            rng = np.random.default_rng(3)
            def scramble(xs):
                r.shuffle(xs)
                rng.shuffle(xs)
                return r.sample(xs, 2)
            """
        )
        assert fs == []

    def test_from_imported_seeded_factories_clean(self):
        fs = findings(
            """
            from numpy.random import default_rng
            from random import Random
            rng = default_rng(0)
            r = Random(1)
            """
        )
        assert fs == []


class TestDET001SeedlessGenerator:
    """A seeded constructor called without a seed draws OS entropy."""

    @pytest.mark.parametrize(
        "src",
        [
            "import numpy as np\nrng = np.random.default_rng()",
            "import numpy as np\nrng = np.random.default_rng(None)",
            "import random\nr = random.Random()",
            "from numpy.random import default_rng\nrng = default_rng()",
        ],
    )
    def test_seedless_generator_flagged(self, src):
        fs = findings(src)
        assert [f.rule for f in fs] == ["DET001"]
        assert "without a seed" in fs[0].message

    def test_seedless_bit_generator_and_keyword_none_flagged(self):
        fs = findings(
            """
            import numpy as np
            g = np.random.Generator(np.random.PCG64())
            ss = np.random.SeedSequence(entropy=None)
            legacy = np.random.RandomState(seed=None)
            """
        )
        assert len(fs) == 3
