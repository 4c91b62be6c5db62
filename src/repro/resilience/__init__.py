"""Fault-tolerant supervised runtime around the stream engine.

The paper's central property — all of A-Seq's state is a handful of
prefix counters — makes durability nearly free, and this package
spends that windfall: one append-only event journal that every
write-ahead log is, owning the checkpoint generations beside it
(:mod:`~repro.resilience.journal`), engine-wide atomic checkpoints
(:mod:`~repro.resilience.checkpointer`), crash recovery by
checkpoint-plus-replay (:mod:`~repro.resilience.recovery`),
per-registration failure isolation with a dead-letter queue and
quarantine (:mod:`~repro.resilience.supervisor`), process-level shard
supervision — heartbeats and restart health —
(:mod:`~repro.resilience.shard_supervisor`), exact router recovery
from the router's batch-per-record WAL
(:mod:`~repro.resilience.router_recovery`), and the seeded fault
injection the chaos tests drive it all with
(:mod:`~repro.resilience.faults`).
"""

from importlib import import_module

#: Re-exported name -> defining submodule, resolved on first access
#: (PEP 562): the ``--journal`` lane imports the supervisor, journal,
#: checkpointer and recovery and must not pay for the shard runtime
#: that ``router_recovery`` and ``faults`` bring in.
_EXPORTS = {
    name: f"repro.resilience.{module}"
    for module, names in {
        "checkpointer": (
            "Checkpointer", "engine_state", "list_checkpoints",
            "load_checkpoint", "load_latest_checkpoint", "write_checkpoint",
        ),
        "faults": (
            "BurstySink", "FaultPlan", "FaultyExecutor", "InjectedFault",
            "ShardKill", "corrupt_checkpoint", "corrupt_latest_checkpoint",
            "fault_seed", "hang_shard_pipe", "kill_shard", "stall_shard",
            "tear_journal_tail",
        ),
        "journal": (
            "EventJournal", "MemoryShardLog", "list_segments",
            "prune_segments", "read_journal",
        ),
        "recovery": ("recover",),
        "router_recovery": ("recover_router",),
        "shard_supervisor": ("HeartbeatSupervisor", "ShardHealth"),
        "supervisor": (
            "DeadLetter", "DeadLetterQueue", "SupervisedStreamEngine",
        ),
    }.items()
    for name in names
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(module), name)
    return value


__all__ = sorted(_EXPORTS)
