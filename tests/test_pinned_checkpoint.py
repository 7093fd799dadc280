"""Pinned bytes of a checkpoint written after a small tabular search.

The checkpoint resume tests compare a resumed run with an unbroken one, so a
change of the value stores' layout that changed the file, say its order of
table entries, would still pass them. This digest was recorded before the
tabular store held its values as one row per state, and must not move under
any change that claims to keep results: old checkpoints and new ones must
read alike. It was re-recorded once, when the file stopped holding
``last_secondary``, the state of a per-secondary epsilon schedule that no
longer exists; a checkpoint that still holds the key loads and resumes
alike (``test_controller``).
"""
import hashlib

from shapenas import ShapingConfig, SyntheticOracle, SyntheticTaskSpec, \
    run_search
from shapenas.controller import CallableSecondary, save_checkpoint
from test_pinned_traces import per_action

PINNED_SHA256 = \
    "b21d1c30590d537fd66a796851babf3f71c10806edc76d464218ae124ae4501f"


def test_checkpoint_bytes_match_pinned_digest(tmp_path, toy_space):
    # shaped, one potential; a high temperature visits many chains
    cfg = ShapingConfig(episodes=30, max_steps=4, tau=-1e9, budgets=(100.0,),
                        softmax_temperature=5.0)
    oracle = SyntheticOracle(SyntheticTaskSpec(
        (0.25, 0.1, 0.02), diminishing=0.7, interaction_bonus=((0, 1, 0.05),)))
    trace = run_search(toy_space, oracle, CallableSecondary(per_action, 1),
                       cfg, seed=3)
    path = tmp_path / "ckpt.json"
    save_checkpoint(trace.state, path)
    assert len(trace.state.phis) == 1
    # 58 entries over 33 states, written in an order other than the one in
    # which the search first met them
    table = trace.state.q.to_dict()["table"]
    assert (len(table), len({tuple(s) for s, _, _ in table})) == (58, 33)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_SHA256
