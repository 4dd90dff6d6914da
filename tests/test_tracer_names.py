"""The benchmark's tracer (``perfbench/tracing.py``) wraps toolkit functions by
module and attribute name; a rename in the toolkit must fail here, not only in
a traced benchmark run."""

import importlib
import sys
from pathlib import Path

import pytest

from fapft.checkpoint import Checkpoint

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.append(str(ROOT))

from perfbench.tracing import Tracer  # noqa: E402


@pytest.mark.parametrize("span", sorted(Tracer.FUNCTIONS))
def test_traced_function_resolves(span):
    owner, attr, *_ = Tracer.FUNCTIONS[span]
    assert callable(getattr(importlib.import_module(owner), attr))


def test_traced_checkpoint_members_resolve():
    assert isinstance(Checkpoint.__dict__["content_hash"], property)
    assert callable(Checkpoint.__dict__["canonical_bytes"])


def test_install_wraps_and_uninstall_restores():
    import fapft.cli
    import fapft.soup

    originals = (fapft.cli.uniform_soup, fapft.soup.uniform_soup, Checkpoint.__dict__["content_hash"])
    tracer = Tracer()
    tracer.install()
    try:
        assert fapft.cli.uniform_soup is not originals[0]
        assert fapft.soup.uniform_soup is not originals[1]
    finally:
        tracer.uninstall()
    assert (fapft.cli.uniform_soup, fapft.soup.uniform_soup, Checkpoint.__dict__["content_hash"]) == originals
