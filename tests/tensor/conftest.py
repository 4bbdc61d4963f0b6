"""Fixtures shared by the kernel tests."""

import pytest

from repro.tensor import sparse


@pytest.fixture(params=["direct", "public"])
def csr_entry(request, monkeypatch):
    """Both entries into scipy's CSR accumulation: the private routine, and
    the public product the module falls back to at import when the private
    symbol is missing (forced here)."""
    if request.param == "public":
        monkeypatch.setattr(sparse, "_rowsum_csr", sparse._rowsum_csr_public)
    else:
        assert sparse._rowsum_csr is sparse._rowsum_csr_direct
    return request.param
