"""The thread-topology model against the real ``repro.shard`` package:
role inference, call-edge resolution, lock-key normalization,
happens-before pairing and the interprocedural lockset fixpoint must
all hold on the code the analyzer exists to check."""

from functools import cache
from pathlib import Path

from repro.analysis.lint import FileContext, SourceIndex
from repro.analysis.threads.engine import ThreadAnalysis, analysis_for
from repro.analysis.threads.model import package_model
from repro.analysis.threads.roles import entry_methods, infer_roles

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


@cache
def shard_model():
    return package_model(SRC / "shard" / "workers.py")


# ---------------------------------------------------------------------------
# roles
# ---------------------------------------------------------------------------

def test_worker_loop_runs_as_shard_worker():
    roles = infer_roles(shard_model())
    assert roles.of("ShardWorkerPool._worker_loop") == {"shard-worker"}
    # the partition runner is only reachable from the worker loop
    assert roles.of("ShardWorkerPool._run_partition") == {"shard-worker"}


def test_heal_step_reachable_from_both_roles():
    # HealQueue.step is public (caller) and driven between foreground
    # ops by the owner threads (shard-worker) — both roles must stick
    roles = infer_roles(shard_model())
    assert {"caller", "shard-worker"} <= roles.of("HealQueue.step")
    assert {"caller", "shard-worker"} <= roles.of("HealQueue._emit")


def test_recovery_workers_run_as_shard_rec():
    model = package_model(SRC / "shard" / "recovery.py")
    roles = infer_roles(model)
    assert "shard-rec" in roles.of("RecoveryOrchestrator._recover_shard")


def test_role_witness_chain_starts_at_the_spawn():
    roles = infer_roles(shard_model())
    chain = roles.chain("ShardWorkerPool._run_partition", "shard-worker")
    assert chain, "no witness chain recorded"
    assert "spawns" in chain[0][2]
    assert "Thread(target=…)" in chain[0][2]


def test_entry_methods_cover_spawns_and_public_api():
    entries = entry_methods(shard_model())
    assert "ShardWorkerPool._worker_loop" in entries   # spawn target
    assert "ShardWorkerPool.run_batch" in entries      # public API
    assert "ShardWorkerPool._run_partition" not in entries


# ---------------------------------------------------------------------------
# lock keys and locksets
# ---------------------------------------------------------------------------

def test_per_shard_lock_subscripts_normalize():
    model = shard_model()
    complete = model.methods["HealQueue._complete"]
    done_writes = [a for a in complete.accesses
                   if a.attr == "done" and a.kind == "write"]
    assert done_writes, "no write to _ShardHeal.done in _complete"
    assert done_writes[0].lockset == {"HealQueue._locks[·]"}


def test_condition_lock_alias_folds_to_one_key():
    model = package_model(SRC / "core" / "concurrency.py")
    info = model.classes["LatchManager"]
    assert info.lock_aliases.get("_mutex") == "_cond"
    assert model.canonical_lock("LatchManager._mutex") \
        == "LatchManager._cond"
    assert model.canonical_lock("LatchManager._other") \
        == "LatchManager._other"


def test_inherited_lockset_reaches_emit():
    # _emit never takes the lock lexically; every call site holds it
    analysis = ThreadAnalysis(shard_model())
    assert analysis._inherited["HealQueue._emit"] \
        == {"HealQueue._locks[·]"}
    # entries can always be called lock-free
    assert analysis._inherited["HealQueue.step"] == frozenset()


# ---------------------------------------------------------------------------
# happens-before edges
# ---------------------------------------------------------------------------

def edge_kinds(model):
    return {(e["kind"], e["src"][0], e["dst"][0])
            for e in model.hb_edges}


def test_put_get_pairing_on_the_worker_queues():
    kinds = edge_kinds(shard_model())
    assert ("put->get", "ShardWorkerPool.run_batch",
            "ShardWorkerPool._worker_loop") in kinds
    assert ("put->get", "ShardWorkerPool.close",
            "ShardWorkerPool._worker_loop") in kinds


def test_done_event_set_wait_pairing():
    # the worker's done.set() is untyped (unpacked from a queue tuple);
    # the eventish-name fallback must still pair it with the typed wait
    kinds = edge_kinds(shard_model())
    assert ("set->wait", "ShardWorkerPool._worker_loop",
            "ShardWorkerPool.run_batch") in kinds


def test_thread_start_join_pairing():
    kinds = edge_kinds(shard_model())
    assert ("start->join", "ShardWorkerPool.__init__",
            "ShardWorkerPool.close") in kinds


# ---------------------------------------------------------------------------
# spawn bookkeeping
# ---------------------------------------------------------------------------

def test_worker_threads_rooted_in_the_pool_attribute():
    model = shard_model()
    spawns = [s for mi in model.methods.values() for s in mi.spawns
              if s.kind == "thread" and s.method == "ShardWorkerPool.__init__"]
    assert spawns and spawns[0].root == "ShardWorkerPool._threads"
    assert spawns[0].role == "shard-worker"
    assert spawns[0].target == "ShardWorkerPool._worker_loop"


def test_one_analysis_per_package_per_run():
    # two files of one package in one lint run share the run's index,
    # and through it one model and one analysis
    index = SourceIndex()
    workers, heal = [FileContext(path, path.name, path.read_text(), index)
                     for path in (SRC / "shard" / "workers.py",
                                  SRC / "shard" / "heal.py")]
    first = analysis_for(workers)
    assert analysis_for(heal) is first
    assert heal.tree in [tree for _, tree in first.model._modules]
