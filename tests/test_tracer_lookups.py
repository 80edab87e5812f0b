"""The benchmark tracer's lookups: bench/tracer.py patches each wrapped
function in every module that imported it by name, and refuses to trace if one
of them holds something else.  So each of those imports is checked here,
without installing the tracer, and dropping one fails these tests rather than
the next traced benchmark run.
"""
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WRAPPED = load_tracer().WRAPPED


@pytest.mark.parametrize(
    "attr, owners", [(attr, owners) for _, attr, owners, _ in WRAPPED], ids=[attr for _, attr, _, _ in WRAPPED]
)
def test_every_owner_holds_the_first_owners_function(attr, owners):
    original = getattr(owners[0], attr)
    for owner in owners[1:]:
        assert getattr(owner, attr) is original, owner.__name__
