"""The package against the contract of the benchmark's tracer.

`bench/tracer.py` patches the functions it names in TRACED and, for those
in COUNTERS, calls a counter with the traced call's own arguments before
the call runs.  So an extra parameter on such a function, or two traced
names bound to one function object, would break only the traced runs of
the benchmark.  These tests read the tracer as it is and check both.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from iwt.mazur_tate import ingest_modular_symbols
from iwt.polyops import _binomial, _pack, _Packed, poly_divmod_monic, poly_mul

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer_contract", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


def resolve(module_name, path):
    """The function object a traced name stands for, or None."""
    owner = importlib.import_module(f"iwt.{module_name}")
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        owner = getattr(owner, owner_name, None)
    raw = vars(owner).get(attr) if owner is not None else None
    return getattr(raw, "__func__", raw)


def positional_parameters(fn):
    return [param for param in inspect.signature(fn).parameters.values()
            if param.kind in (param.POSITIONAL_ONLY, param.POSITIONAL_OR_KEYWORD)]


# a call of each counted function, as the package makes it
COUNTED_CALLS = {
    "polyops.poly_mul": (poly_mul, ([3, 1, 4], [1, 5], 7)),
    # a packed numerator of 4 residues by X^2 - 1, as the Phi divisions pass it
    "polyops.poly_divmod_monic": (poly_divmod_monic,
                                  (_Packed(_pack([3, 1, 4, 1], 8), 4, 8), _binomial(2), 7)),
    "mazur_tate.ingest_modular_symbols": (
        ingest_modular_symbols,
        ({"p": 3, "conductor": 11, "ap": 1, "eps_p": 1, "maxN": 1,
          "symbols": [{"a": a, "N": 1, "plus": "1/1", "minus": "0/1"} for a in (1, 2)]},
         1)),
}


def test_every_counter_has_a_call():
    assert sorted(COUNTED_CALLS) == sorted(tracer.COUNTERS)


@pytest.mark.parametrize("name", sorted(tracer.COUNTERS))
def test_counters_accept_the_arguments_of_their_function(name):
    fn, args = COUNTED_CALLS[name]
    module_name, _, path = name.partition(".")
    assert resolve(module_name, path) is fn
    _, counter = tracer.COUNTERS[name]
    # the counter takes every positional argument the function takes, and
    # counts the call the package makes
    inspect.signature(counter).bind(*positional_parameters(fn))
    assert isinstance(counter(*args), int)
    fn(*args)


def test_every_traced_name_is_one_function_of_its_own():
    resolved = {f"{module}.{path}": resolve(module, path) for module, path in tracer.TRACED}
    assert [name for name, fn in resolved.items() if fn is None] == []
    by_function = {}
    for name, fn in resolved.items():
        by_function.setdefault(id(fn), []).append(name)
    assert [names for names in by_function.values() if len(names) > 1] == []
