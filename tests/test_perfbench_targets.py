"""The library functions that perfbench's traced mode wraps still exist.

perfbench/layers.py patches spans around (owner, attribute) pairs of the
library; a refactor that removes or renames one of them would otherwise
first fail inside a traced benchmark run.  The module is loaded from its
file; only the last two tests install its tracer, and each uninstalls
it again.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

from liftcert import Inert, PairConfig, RationalCenter, ResiduePoly, lifting

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets():
    return _layers().TARGETS


def test_every_target_resolves():
    for name, owner, attr in _targets():
        assert callable(getattr(owner, attr, None)), (
            f"span {name}: {owner.__name__}.{attr} is gone")


def test_certify_path_targets_are_listed():
    listed = {(owner.__name__, attr) for _, owner, attr in _targets()}
    assert {
        ("LiftingCertificate", "to_json"),
        ("PairConfig", "expansion_table"),
        ("liftcert.valuation", "phi_expand"),
    } <= listed


def test_traced_residue_read_reaches_its_parse_calls():
    # residue_from_json imports parse_polynomial inside its body, so the
    # tracer's patch of parse.parse_polynomial sees each coefficient's
    # parse; a module-level import would bind the unpatched function and
    # hide those calls from the traced run
    layers = _layers()
    config = PairConfig([Inert((1, 0, 1), Fraction(1, 2)),
                         RationalCenter(Fraction(0), Fraction(1, 3))], 3)
    doc = {"p": 3, "coeffs": [{"exp": [1, 1], "c": "1"},
                              {"exp": [0, 0], "c": "y1 + 2"}]}
    tracer = layers.Tracer()
    tracer.install()
    try:
        lifting.residue_from_json(doc, config)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    parents = [spans[span[layers.PARENT]][layers.NAME]
               for span in spans if span[layers.NAME] == "parse"]
    assert parents == ["lifting.residue_from_json"] * 2


def test_traced_generate_records_its_shift():
    # generate_lifting's reconstruct undoes the centre with
    # MultiPoly.shift, so the traced multipoly.shift_s includes the
    # write side's shifts
    layers = _layers()
    config = PairConfig([RationalCenter(Fraction(1, 2), Fraction(1))], 5)
    field = config.field
    T = ResiduePoly(field, 1, {(2,): field.one, (0,): field.from_int(2)})
    tracer = layers.Tracer()
    tracer.install()
    try:
        lifting.generate_lifting(T, config)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    parents = [spans[span[layers.PARENT]][layers.NAME]
               for span in spans if span[layers.NAME] == "multipoly.shift"]
    assert parents == ["lifting.generate"]
