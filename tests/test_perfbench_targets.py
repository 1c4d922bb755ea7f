"""The library functions that perfbench's traced mode wraps still exist.

perfbench/layers.py patches spans around (owner, attribute) pairs of the
library; a refactor that removes or renames one of them would otherwise
first fail inside a traced benchmark run.  The module is loaded from its
file and only read.
"""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


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
