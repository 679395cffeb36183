"""Shared fixtures for the assembly-service suite."""

import pytest

from tests.service.chaos import write_service_reads


@pytest.fixture(scope="package")
def reads_path(tmp_path_factory):
    """The small deterministic SVC read set, written once per run."""
    path = tmp_path_factory.mktemp("svc") / "reads.fasta"
    return write_service_reads(str(path))
