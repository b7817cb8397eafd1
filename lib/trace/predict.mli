(** Analytic throughput prediction — the profiler turned into an oracle.

    Following the serial/contended decomposition of "Performance
    Prediction for Coarse-Grained Locking" (Aksenov–Alistarh,
    arXiv 1904.11323), a lock microbenchmark point is bounded by two
    regimes:

    - {b serial}: threads never queue; each loop iteration costs the
      critical section plus the non-critical work plus one uncontended
      acquire, and the machine runs [min n contexts] of them at once.
    - {b contended}: the lock is saturated; system throughput is one
      acquisition per (critical-section service time + ownership
      transfer), no matter how many threads wait.

    The predicted throughput is the min of the two bounds. The
    ownership-transfer cost is where cohorting bites: a handoff within
    the owning cluster moves the lock word across a local cache, a
    global handoff drags it over the interconnect. The mix between the
    two comes from the measured cohort batch run-length
    ({!Metrics.t.batch_p50}): a batch of [B] acquisitions pays one
    global transfer and [B - 1] local ones.

    Inputs are run {e observations} (hold-time mean, batch length,
    measured interconnect queueing) plus topology {e calibration}
    (transfer latencies, context count) — never per-site profile rows,
    so predictions are computable on every simulated run, with or
    without [--profile], and identical across both. Prediction is pure
    arithmetic over immutable rollups: it can never perturb a schedule
    or an artifact byte. *)

type calib = {
  contexts : int;  (** hardware contexts — caps the serial bound. *)
  local_ns : float;  (** within-cluster line transfer, {!Latency.local_hit}. *)
  remote_ns : float;
      (** mean cross-cluster transfer over distinct domain pairs,
          {!Topology.mean_remote_transfer_ns}. *)
  atomic_ns : float;  (** RMW premium on the lock word, {!Latency.atomic_extra}. *)
}
(** Topology-derived constants. Callers build this from [Topology.t]
    (the trace library sits below [numa_base] and cannot). *)

type t = {
  n_threads : int;
  service_ns : float;  (** critical-section service time: measured hold mean. *)
  handoff_ns : float;  (** batch-mixed ownership-transfer cost per acquire. *)
  serial_bound : float;  (** ops/s, uncontended regime. *)
  contended_bound : float;  (** ops/s, saturated regime. *)
  throughput : float;  (** min of the bounds — the prediction. *)
  err : float;
      (** signed relative error vs the measured throughput,
          [(pred - meas) / meas]; [nan] if no measurement was given. *)
}

val predict :
  calib:calib ->
  noncrit_ns:float ->
  n_threads:int ->
  hold_mean_ns:float ->
  batch_p50:float ->
  icx_queue_mean_ns:float ->
  ?measured:float ->
  unit ->
  t
(** [noncrit_ns] is the mean non-critical work per loop iteration (the
    LBench pause; {!Bench_core}'s [non_cs_delay] mean). [batch_p50]
    values of [nan] or [< 1] mean "no cohort batching observed" and
    clamp to 1 (every handoff global). [icx_queue_mean_ns] is the
    measured mean interconnect queueing per crossing transaction
    ([icx.queue_ns / icx.txns]), 0 if no transaction crossed. *)

val to_fields : t -> (string * float) list
(** Flat [pred_*] metrics merged into cohort-bench/3 artifact entries. *)
