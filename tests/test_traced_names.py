"""The benchmark tracer wraps coadinv functions by name; each must exist."""

from __future__ import annotations

import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_name_is_a_callable_of_its_module():
    # executed from its source text, so no bytecode is written next to it
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), namespace)
    traced = namespace["TRACED"]
    assert traced
    for qualname in traced:
        mod_name, fn_name = qualname.split(".")
        module = importlib.import_module("coadinv." + mod_name)
        assert callable(getattr(module, fn_name, None)), qualname
