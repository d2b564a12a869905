"""Crash-point fuzzing: kill the engine at every durability boundary.

The durability subsystem's correctness claim is sharp — *whenever* the
engine dies, recovery plus journalled resume lands on a database that
is logically identical to an uncrashed run.  This harness turns the
claim into an exhaustive (or sampled) sweep:

1. **Census** — run the workload once on a fresh durable system with a
   counting injector attached: every WAL append, per-frame flush,
   fsync and checkpoint step calls
   :meth:`~repro.sim.faults.FaultInjector.on_durability_op`, so the
   reference run yields the boundary count *N*, the per-kind census,
   and the reference :meth:`~repro.engine.database.Database.content_digest`.
2. **Sweep** — for each sampled boundary index *k* in ``1..N``, rerun
   the workload on a fresh system with ``crash_at_durability_op=k``:
   the injected :class:`~repro.engine.errors.SimulatedCrash` freezes
   the durable store exactly as a power failure would.  Recover via
   :func:`~repro.sapschema.loader.recover_sap_system` (ARIES passes +
   app-tier journal reconstruction), resume the workload from the
   recovered journal, and compare digests.
3. **Damage variants** — a subset of trials additionally arms
   ``torn_write_prob=1`` (the frame in flight lands truncated on the
   log tail) or flips a byte in the tail frame after the crash (CRC
   failure).  Both must be absorbed as a torn tail: the affected
   transaction becomes a loser, resume replays it, digests still match.

Everything is deterministic (seeded profiles, simulated clock), so a
divergence is a reproducible bug, not flake: rerun with the reported
``k`` and workload to debug it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.engine.errors import SimulatedCrash
from repro.errors import UsageError
from repro.sim.faults import FaultInjector, FaultProfile
from repro.sim.params import SimParams
from repro.sim.sweep import SweepReport
from repro.tpcd.dbgen import generate_update_pairs

#: workload names accepted by :func:`run_crash_fuzz`
FUZZ_WORKLOADS = ("load", "uf", "power")


# -- workloads ---------------------------------------------------------------


def _build_durable_system(params: SimParams, v22: bool = False,
                          storage: str = "heap"):
    from repro.engine.wal import DurableStore
    from repro.r3.appserver import R3System, R3Version

    store = DurableStore(params)
    r3 = R3System(
        version=R3Version.V22 if v22 else R3Version.V30,
        params=params, durability="wal", store=store, storage=storage)
    return r3, store


def _durable_fast_setup(r3, data):
    """Bulk-load the SAP schema, upgrade to 3.0 (KONV conversion, drop
    of the shipdate index) and seal the state: the pre-fuzz fixture for
    the update-function and power workloads.  Committed and
    checkpointed, so no crash during the fuzzed section can roll it
    back."""
    from repro.r3.batchinput import LoadJournal
    from repro.r3.upgrade import upgrade_to_30
    from repro.sapschema.loader import load_sap_fast

    load_sap_fast(r3, data, analyze=False)
    upgrade_to_30(r3)
    r3.db.drop_index("idx_vbep_edatu")
    r3.db.analyze()
    journal = LoadJournal()
    journal.setup_done = True
    r3.db.begin()
    r3.db.commit(journal=journal.to_wire())
    r3.db.checkpoint()
    return journal


class _LoadWorkload:
    """The Table-3 batch-input load, journalled end to end."""

    name = "load"
    v22 = False

    def setup(self, r3, data):
        from repro.r3.batchinput import LoadJournal

        return LoadJournal()

    def run(self, r3, journal, data, commit_interval):
        from repro.sapschema.loader import load_sap_batch_input

        load_sap_batch_input(r3, data, processes=1,
                             commit_interval=commit_interval,
                             journal=journal)


class _UfWorkload:
    """UF1 (insert refresh orders) + UF2 (delete orders), journalled."""

    name = "uf"
    v22 = True  #: built at 2.2 so setup can run the in-place upgrade

    def setup(self, r3, data):
        return _durable_fast_setup(r3, data)

    def run(self, r3, journal, data, commit_interval):
        from repro.reports.updatefuncs import run_uf1_sap, run_uf2_sap

        (refresh, deletes), = generate_update_pairs(data, 1)
        run_uf1_sap(r3, refresh, commit_interval=commit_interval,
                    journal=journal)
        run_uf2_sap(r3, deletes, commit_interval=commit_interval,
                    journal=journal)


class _PowerWorkload(_UfWorkload):
    """A compact power test: read queries (which never touch the WAL)
    interleaved around the journalled update functions."""

    name = "power"
    query_numbers = (1, 6, 13)

    def run(self, r3, journal, data, commit_interval):
        from repro.reports import open30

        suite = open30.make_queries(data.scale_factor)
        for number in self.query_numbers[:-1]:
            suite[number](r3)
        super().run(r3, journal, data, commit_interval)
        suite[self.query_numbers[-1]](r3)


_WORKLOADS = {w.name: w for w in (_LoadWorkload(), _UfWorkload(),
                                  _PowerWorkload())}


def _workload(name: str):
    if name not in _WORKLOADS:
        raise UsageError(f"unknown crash-fuzz workload {name!r}; "
                         f"choose from {', '.join(FUZZ_WORKLOADS)}")
    return _WORKLOADS[name]


# -- trial / per-workload records --------------------------------------------


@dataclass
class CrashTrial:
    """One crash-at-boundary-``k`` experiment."""

    k: int
    mode: str = "clean"  #: clean | torn | corrupt-tail
    kind: str = ""  #: boundary kind the crash landed on
    crashed: bool = False
    torn_frames: int = 0
    tail_corrupted: bool = False
    recovered: bool = False
    resumed: bool = False
    digest_ok: bool = False
    loser_txns: int = 0
    redo_applied: int = 0
    undo_applied: int = 0
    torn_tail_dropped: int = 0
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.digest_ok and not self.error

    def to_json(self) -> dict:
        return {**asdict(self), "ok": self.ok}


@dataclass
class FuzzCell:
    """The sweep over one workload: its census and its trials."""

    workload: str
    boundaries: int = 0
    boundary_kinds: dict[str, int] = field(default_factory=dict)
    reference_digest: str = ""
    trials: list[CrashTrial] = field(default_factory=list)

    @property
    def key(self) -> dict[str, object]:
        return {"workload": self.workload}

    @property
    def divergences(self) -> list[CrashTrial]:
        return [t for t in self.trials if not t.ok]

    @property
    def ok(self) -> bool:
        return not self.divergences

    def to_json(self) -> dict:
        return {
            "workload": self.workload,
            "boundaries": self.boundaries,
            "boundary_kinds": dict(sorted(self.boundary_kinds.items())),
            "reference_digest": self.reference_digest,
            "trials": [t.to_json() for t in self.trials],
            "divergences": len(self.divergences),
            "ok": self.ok,
        }


def digests_match(cells: list[FuzzCell]) -> list[str]:
    """Every crashed, recovered and resumed run lands on the digest of
    the uncrashed reference."""
    return [
        f"{cell.workload} k={t.k} mode={t.mode} kind={t.kind}: "
        f"{t.error or 'digest mismatch'}"
        for cell in cells for t in cell.divergences]


def _trials_in(mode: str):
    return lambda cell: sum(t.mode == mode for t in cell.trials)


_FUZZ_COLUMNS = (
    ("Workload", lambda c: c.workload),
    ("Boundaries", lambda c: c.boundaries),
    ("Trials", lambda c: len(c.trials)),
    ("Clean", _trials_in("clean")),
    ("Torn", _trials_in("torn")),
    ("Corrupt", _trials_in("corrupt-tail")),
    ("Diverged", lambda c: len(c.divergences)),
    ("Verdict", lambda c: "ok" if c.ok else "DIVERGED"),
)


# -- the sweep ---------------------------------------------------------------


def _sample_boundaries(total: int, sample: int | None) -> list[int]:
    """Evenly spaced boundary indices, always covering both ends."""
    if total <= 0:
        return []
    if sample is None or sample >= total:
        return list(range(1, total + 1))
    if sample == 1:
        return [total]
    step = (total - 1) / (sample - 1)
    return sorted({round(1 + i * step) for i in range(sample)})


def crash_census(workload: str, data, commit_interval: int = 8,
                 params_factory=SimParams,
                 storage: str = "heap") -> FuzzCell:
    """Reference run of ``workload``: the boundary count, the per-kind
    census and the clean digest, as a :class:`FuzzCell` without trials."""
    work = _workload(workload)
    r3, _ = _build_durable_system(params_factory(), v22=work.v22,
                                  storage=storage)
    journal = work.setup(r3, data)
    injector = FaultInjector(FaultProfile(name="census"), r3.clock,
                             r3.metrics)
    r3.attach_faults(injector)
    work.run(r3, journal, data, commit_interval)
    r3.detach_faults()
    return FuzzCell(workload=workload,
                    boundaries=injector.durability_ops,
                    boundary_kinds=dict(injector.durability_kinds),
                    reference_digest=r3.db.content_digest())


def run_crash_trial(workload: str, data, k: int, mode: str,
                    reference_digest: str, commit_interval: int = 8,
                    params_factory=SimParams,
                    storage: str = "heap") -> CrashTrial:
    """Crash ``workload`` at durability boundary ``k``, recover, resume
    and compare with ``reference_digest`` (from :func:`crash_census`,
    run with the same settings).  ``mode`` is ``clean``, ``torn`` or
    ``corrupt-tail``."""
    from repro.r3.appserver import R3Version
    from repro.sapschema.loader import recover_sap_system

    work = _workload(workload)
    trial = CrashTrial(k=k, mode=mode)
    r3, store = _build_durable_system(params_factory(), v22=work.v22,
                                      storage=storage)
    journal = work.setup(r3, data)
    profile = FaultProfile(
        name=f"crashfuzz-{workload}-{mode}-{k}", seed=1996 + k,
        crash_at_durability_op=k,
        torn_write_prob=1.0 if mode == "torn" else 0.0,
    )
    injector = r3.attach_faults(profile)
    try:
        work.run(r3, journal, data, commit_interval)
    except SimulatedCrash:
        trial.crashed = True
    trial.kind = injector.last_durability_kind
    trial.torn_frames = int(r3.metrics.get("faults.torn_writes_injected"))
    if not trial.crashed:
        # k beyond this run's boundary count (cannot happen when the
        # sweep samples 1..N of a deterministic workload, but keep the
        # trial meaningful if a caller passes an arbitrary k).
        trial.digest_ok = r3.db.content_digest() == reference_digest
        return trial
    if mode == "corrupt-tail" and store.frame_count:
        store.corrupt_tail_frame()
        trial.tail_corrupted = True
    try:
        r3b, journal_b, report = recover_sap_system(
            store, version=R3Version.V30)
        trial.recovered = True
        trial.loser_txns = report.loser_txns
        trial.redo_applied = report.redo_applied
        trial.undo_applied = report.undo_applied
        trial.torn_tail_dropped = report.torn_tail_dropped
        work.run(r3b, journal_b, data, commit_interval)
        trial.resumed = True
        trial.digest_ok = r3b.db.content_digest() == reference_digest
    except Exception as exc:  # a diverging trial must not kill the sweep
        trial.error = f"{type(exc).__name__}: {exc}"
    return trial


#: the automatic checkpoint interval (log records) a fuzz run lowers the
#: engine's to
FUZZ_CHECKPOINT_EVERY = 1500


def run_crash_fuzz(
    scale_factor: float = 0.0002,
    workloads: tuple[str, ...] = ("load",),
    commit_interval: int = 8,
    sample: int | None = 24,
    corrupt_tail_trials: int = 2,
    storage: str = "heap",
) -> SweepReport:
    """Sweep injected engine crashes over ``workloads``.

    ``sample=None`` fuzzes *every* boundary (exhaustive); an integer
    bounds the sweep to that many evenly spaced crash points.  Every
    other sampled point reruns with guaranteed torn-write truncation;
    ``corrupt_tail_trials`` additional points reuse the lowest sampled
    indices with post-crash CRC damage on the log tail.  The engine
    checkpoints every :data:`FUZZ_CHECKPOINT_EVERY` log records, so the
    sweep also lands crashes *inside* the checkpoint protocol (begin /
    page writes / end) at fuzz-sized workloads.
    """
    from repro.tpcd.dbgen import generate

    def params_factory() -> SimParams:
        params = SimParams()
        params.wal_checkpoint_every_records = FUZZ_CHECKPOINT_EVERY
        if storage == "lsm":
            # Fuzz-sized datasets would never fill the default
            # memtable: shrink it so the sweep actually lands
            # crashes on lsm.flush / lsm.compaction boundaries.
            params.lsm_memtable_bytes = 8 * 1024
            params.lsm_l0_compaction_trigger = 2
        return params

    for name in workloads:
        _workload(name)
    data = generate(scale_factor)
    report = SweepReport(
        format="repro-crashfuzz-v1",
        header={"scale_factor": scale_factor,
                "commit_interval": commit_interval, "sample": sample,
                "storage": storage},
        title=f"Crash-point fuzz at SF={scale_factor} "
              f"(commit interval {commit_interval})",
        columns=_FUZZ_COLUMNS, invariants=(digests_match,),
        key_fields=("workload",),
        all_clear="Every sampled crash point recovered to the "
                  "reference digest.",
        problems="Divergent trials",
        cells_key="workloads", violations_key=None)
    for name in workloads:
        cell = crash_census(name, data, commit_interval, params_factory,
                            storage)
        ks = _sample_boundaries(cell.boundaries, sample)
        plan = [(k, "clean") for k in ks]
        plan += [(k, "torn") for k in ks[::2]]
        plan += [(k, "corrupt-tail") for k in ks[:corrupt_tail_trials]]
        cell.trials = [
            run_crash_trial(name, data, k, mode, cell.reference_digest,
                            commit_interval, params_factory, storage)
            for k, mode in plan]
        report.cells.append(cell)
    return report.check()
