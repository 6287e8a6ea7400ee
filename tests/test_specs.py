from dataclasses import fields

import pytest

from udortho.estimator import ExperimentSpec
from udortho.lowdisc import SequenceSpec
from udortho.orthogonal import OrthoSequenceSpec

# The settable fields of each spec, in positional order.  Everything else
# about a run is derived from them, so a setting added back (an index
# offset, an unscrambled sequence) has to change this table on purpose.
SETTINGS = {
    SequenceSpec: ("dims", "bases", "permutation_seed"),
    OrthoSequenceSpec: ("n", "permutation_seed", "veech"),
    ExperimentSpec: ("polytope", "n", "k", "N", "mode", "seed", "trace_points"),
}


@pytest.mark.parametrize("spec", SETTINGS, ids=lambda spec: spec.__name__)
def test_specs_take_only_their_documented_settings(spec):
    assert tuple(f.name for f in fields(spec) if f.init) == SETTINGS[spec]
