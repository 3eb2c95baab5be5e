"""The traced benchmark run wraps byzsw functions by name (perfbench/tracer.py)
and reads some of their return values. A renamed target or a reshaped return
value does not fail that run: its metrics go missing from the result. These
tests fail instead."""
import importlib
import importlib.util
import warnings
from pathlib import Path

import numpy as np
import pytest

from byzsw import (
    FixedRateCode,
    HonestCollection,
    InfoModel,
    JointPMF,
    ProtocolParams,
    SubsetView,
    TraitorContext,
    derive_seed,
    fixed_rate_ambiguity_attack,
    max_entropy_with_marginals,
    run_session,
    sample_block,
)

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
# byte-string kernels the binning layer no longer has, and the one-round
# side-information draw (a round's W is sample_side_infos' one-round call)
GONE = {("byzsw.binning", "BinningCodebook.encode_block_bytes"),
        ("byzsw.binning", "fixed_rate_encode_bytes"),
        ("byzsw.binning", "all_sequence_bytes"),
        ("byzsw.source_model", "sample_side_info")}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


def resolves(module_name: str, path: str) -> bool:
    """The tracer's own lookup: attributes of a class must be its own."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
    if isinstance(owner, type):
        return attr in owner.__dict__
    return owner is not None and callable(getattr(owner, attr, None))


@pytest.mark.parametrize("module_name, path",
                         [(t[0], t[1]) for t in tracer.TARGETS if (t[0], t[1]) not in GONE])
def test_target_resolves(module_name, path):
    assert resolves(module_name, path)


def test_gone_targets_are_the_only_missing_ones():
    assert GONE <= {(t[0], t[1]) for t in tracer.TARGETS}
    assert not any(resolves(*key) for key in GONE)


def test_every_layer_keeps_a_live_target():
    # a layer whose every target is gone drops its metrics from the traced
    # run's result line, which CI's traced benchmark step refuses
    live = {t[2] for t in tracer.TARGETS if (t[0], t[1]) not in GONE}
    assert live == {t[2] for t in tracer.TARGETS}


def chain_law(cross=0.15) -> JointPMF:
    mass = np.zeros((2, 2, 2))
    for x in np.ndindex(2, 2, 2):
        mass[x] = 0.5 * (1 - cross if x[1] == x[0] else cross) * (
            1 - cross if x[2] == x[1] else cross)
    return JointPMF((2, 2, 2), mass)


def one_round_session():
    p = JointPMF((2, 2), np.array([[0.445, 0.055], [0.055, 0.445]]))
    params = ProtocolParams(n=8, rounds=1, eps=0.35, nu=1.925, C=8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")      # the subcodebook cap
        return run_session(p, HonestCollection.explicit([[0, 1]]),
                           InfoModel.perfect_info((2, 2)), SubsetView.of(0, 1),
                           None, None, params, seed=1)


def max_entropy_result():
    return max_entropy_with_marginals(chain_law(), [SubsetView.of(0, 1),
                                                    SubsetView.of(1, 2)])


def ambiguity_outcome():
    p = chain_law()
    code = FixedRateCode(rates=(0.92, 0.75, 0.95), n=14, seed=derive_seed(0, "code"))
    block = sample_block(p, 14, derive_seed(0, "block"))
    traitors = SubsetView.of(0)
    ctx = TraitorContext(traitors=traitors, seed=derive_seed(0, "traitor"),
                         own_block=block[None, list(traitors.indices)])
    return fixed_rate_ambiguity_attack(ctx, SubsetView.of(0, 1), SubsetView.of(1, 2),
                                       code, p, block)


RETURN_VALUES = {
    ("byzsw.variable_rate", "run_session"): one_round_session,
    ("byzsw.rate_region", "max_entropy_with_marginals"): max_entropy_result,
    ("byzsw.adversary", "fixed_rate_ambiguity_attack"): ambiguity_outcome,
}


def test_every_hook_has_a_return_value():
    assert set(tracer.RETURN_HOOKS) == set(RETURN_VALUES)


@pytest.mark.parametrize("target", sorted(RETURN_VALUES), ids=lambda t: t[1])
def test_hook_reads_a_real_return_value(target):
    hook, keys = tracer.RETURN_HOOKS[target]
    counters = {key: 0 for key in keys}
    hook(RETURN_VALUES[target](), counters)
    assert set(counters) == set(keys)
