"""Backward-pass Q-table seeding from finished episodes.

After an episode ends, the cumulative future reward is swept backward over
the visited state-action pairs and stored whenever it beats the value already
in the table.  Since episode rewards are clock deltas, the stored value is
(minus) the best remaining makespan observed so far from that pair onward.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class EpisodeTrace:
    """(Packed observation, action index) pairs of one episode with their
    aligned rewards."""

    pairs: list[tuple[bytes, int]]
    rewards: list[int]

    def __post_init__(self):
        if len(self.pairs) != len(self.rewards):
            raise ValueError(
                f"{len(self.pairs)} pairs but {len(self.rewards)} rewards"
            )


def backward_pass(q, trace: EpisodeTrace, include_immediate_reward: bool = False):
    """Write best observed cumulative rewards into Q-table `q`.

    Default order stores, at step k, the cumulative reward strictly after
    action k (the immediate reward is added only after the store).  With
    `include_immediate_reward` the accumulation happens first, so the stored
    value covers the action's own reward as well.
    """
    cumulative = 0
    keep_max = q.keep_max
    for (obs, action), reward in zip(reversed(trace.pairs), reversed(trace.rewards)):
        if include_immediate_reward:
            cumulative += reward
        # Unseen pairs always take the observed value; the optimistic default
        # of 0 would otherwise block every negative cumulative reward.
        keep_max(obs, action, cumulative)
        if not include_immediate_reward:
            cumulative += reward

