"""All cost-model constants, in one dataclass.

These are the only tunables in the reproduction.  The default values
are calibrated (see ``repro.core.calibration``) so that operation-count
ratios land in the neighbourhood of the paper's 1996 measurements.  The
calibration-robustness tests scale the 19 time constants
(``calibration.perturbed``) and check that the conclusions they cover
survive.  That does not hold for the two memory sizes: halving
``work_mem_bytes`` at SF 0.002 turns the 2.2 -> 3.0 upgrade gain from
2.32 / 2.34 (Open SQL / Native SQL) into 0.84 / 0.49, because the spills
it causes are charged as random writes.  Memory that scales with the
data is open as ROADMAP item 8 (a).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class SimParams:
    """Simulated-cost constants shared by the engine and the R/3 layer."""

    # ---- storage ----------------------------------------------------
    page_size_bytes: int = 8192
    #: default buffer pool: the paper's SAP default of 10 MB
    buffer_pool_bytes: int = 10 * 1024 * 1024

    # ---- disk (mid-1990s SCSI disk) ----------------------------------
    seq_read_s: float = 0.0015
    random_read_s: float = 0.012
    write_s: float = 0.010
    #: sequential page write (LSM flush/compaction, direct-path load):
    #: mostly transfer time, like a sequential read plus media overhead
    seq_write_s: float = 0.002
    buffer_hit_s: float = 0.00002

    # ---- engine CPU ---------------------------------------------------
    tuple_cpu_s: float = 0.00002
    index_traverse_s: float = 0.00005
    sort_cmp_s: float = 0.000004
    #: working memory for sorts/hash joins before spilling
    work_mem_bytes: int = 4 * 1024 * 1024

    # ---- SQL front end ---------------------------------------------------
    #: parse + optimize cost per (non-cached) statement compilation
    plan_cpu_s: float = 0.004

    # ---- client/server interface (SAP app server <-> RDBMS) -----------
    roundtrip_s: float = 0.0020
    ship_tuple_s: float = 0.00004
    ship_byte_s: float = 0.0000002

    # ---- ABAP interpreter ---------------------------------------------
    abap_row_s: float = 0.00012
    abap_extract_s: float = 0.00008
    pool_decode_s: float = 0.00010

    # ---- table buffering in the app server -----------------------------
    cache_lookup_s: float = 0.000030
    cache_insert_s: float = 0.000060

    # ---- batch input ----------------------------------------------------
    screen_s: float = 0.12
    batch_record_overhead_s: float = 0.25
    commit_s: float = 0.02

    # ---- robustness / fault handling -------------------------------------
    #: DBIF reconnect attempts before a connection loss becomes permanent
    dbif_max_retries: int = 4
    #: first reconnect backoff; doubles per attempt (exponential)
    dbif_backoff_base_s: float = 0.05
    #: disk-driver retries for one transient page-transfer error
    disk_max_retries: int = 3
    #: error-recovery penalty per failed page transfer
    disk_retry_penalty_s: float = 0.030
    #: writing + syncing one batch-input checkpoint journal record
    checkpoint_s: float = 0.05
    #: reading the journal once when a load resumes after a crash
    journal_read_s: float = 0.02
    #: per-row undo cost when rolling back an uncommitted batch
    rollback_row_s: float = 0.002

    # ---- durability / write-ahead log -------------------------------------
    #: CPU cost of formatting + buffering one WAL record
    wal_append_cpu_s: float = 0.000008
    #: one log force (fsync) at a group-commit boundary
    wal_fsync_s: float = 0.005
    #: WAL records buffered before an automatic group-commit flush
    wal_buffer_records: int = 256
    #: records per log segment before rotation
    wal_segment_records: int = 4096
    #: automatic fuzzy checkpoint every ~N logged records (None: manual)
    wal_checkpoint_every_records: int | None = 20000

    # ---- LSM storage backend ---------------------------------------------
    #: memtable bytes before a size-triggered flush to an L0 SSTable
    lsm_memtable_bytes: int = 256 * 1024
    #: L0 segments that accumulate before compaction into L1 is scheduled
    lsm_l0_compaction_trigger: int = 4
    #: size ratio between adjacent levels (level N+1 holds ratio× level N)
    lsm_level_ratio: int = 8
    #: CPU cost of one memtable insert/lookup (skiplist step, amortised)
    lsm_memtable_op_s: float = 0.000004
    #: CPU cost of one bloom-filter probe on a point read
    lsm_bloom_probe_s: float = 0.000002
    #: CPU cost of one sparse-index binary-search step inside an SSTable
    lsm_index_probe_s: float = 0.000003

    # ---- dispatcher / work-process pool ----------------------------------
    #: rolling a user context into a work process (paper §2: the app
    #: server multiplexes many users over few work processes)
    wp_rollin_s: float = 0.004
    #: rolling the context back out after the dialog step
    wp_rollout_s: float = 0.002
    #: restarting a crashed work process before its request is requeued
    wp_restart_s: float = 2.0

    # ---- parallel query execution ----------------------------------------
    #: hard cap on the degree of parallelism the planner may pick
    parallel_max_degree: int = 8
    #: a lane must be fed at least this many rows to be worth starting
    parallel_min_rows_per_lane: int = 250
    #: coordinator cost per fragment (plan distribution + result merge)
    parallel_fragment_overhead_s: float = 0.003
    #: starting / reaping one worker lane
    parallel_lane_start_s: float = 0.001
    #: shipping one row between lanes or to the coordinator (exchange)
    parallel_ship_tuple_s: float = 0.00001
    #: build sides at or below this many estimated rows are broadcast
    #: to every lane; larger builds are repartitioned by join key
    parallel_broadcast_rows: int = 2000
    #: seed mixed into the deterministic partition hash
    parallel_hash_seed: int = 0

    # ---- multi-app-server cluster / DDLOG coherence -----------------------
    #: appending one invalidation record to the shared DDLOG (piggybacks
    #: on the write's round trip, so it is cheap but not free)
    ddlog_append_s: float = 0.0001
    #: fixed cost of one DDLOG sync poll (read the shared log position)
    ddlog_sync_s: float = 0.0005
    #: applying one replayed invalidation record to the local buffers
    ddlog_replay_record_s: float = 0.00005
    #: restarting a crashed application server before it rejoins the
    #: login balancer's rotation (process start + buffer cold allocate)
    appserver_restart_s: float = 30.0

    # ---- DBIF circuit breaker --------------------------------------------
    #: consecutive DBIF failures (post-retry) before the breaker opens
    breaker_failure_threshold: int = 3
    #: simulated seconds the breaker stays open before half-open probing
    breaker_cooldown_s: float = 30.0
    #: successful half-open probes required to close the breaker again
    breaker_halfopen_probes: int = 1

    def pages_for_bytes(self, byte_count: int) -> int:
        """Number of pages needed to hold ``byte_count`` bytes."""
        if byte_count <= 0:
            return 0
        return -(-byte_count // self.page_size_bytes)
