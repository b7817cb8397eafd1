(** The repo's quantitative claims, in one place.

    Every CLI [--check] and every [scripts/ci.sh] gate that asserts a
    number about the reproduction routes through here, so the
    thresholds have a single authoritative definition instead of magic
    numbers scattered over [bin/] (see EXPERIMENTS.md for the measured
    values behind each one). Each check returns [Ok msg] / [Error msg]
    with a printable one-line verdict; callers decide the exit code. *)

val transfers_claim :
  mcs_per_acq:float -> cohort_per_acq:float -> (string, string) result
(** The paper claim (section 4): C-BO-MCS must move strictly fewer
    remote transfers per acquisition than MCS. [Error] also when either
    input is [nan] (no coherence data — a native run). *)

val lines_claim : cna_lines:int -> cohort_lines:int -> (string, string) result
(** The successor claim: CNA must touch strictly fewer distinct
    lock-metadata cache lines than C-BO-MCS. [Error] also when either
    count is [<= 0] (no per-site profile). *)

val pred_core_locks : string list
(** ["MCS"; "C-BO-MCS"; "CNA"] — the curves the prediction gate runs
    over. *)

val pred_core_threads : int list
(** [[1; 8; 64]] — the pinned thread counts of the prediction gate:
    the serial regime, the transition, and saturation. *)

val prediction_claim : err_pcts:float list -> (string, string) result
(** The prediction gate: median absolute error over the given core
    points (percent) must be within a 25% band (doc/SIMULATOR.md "Model
    validation" states the measured value behind it). [Error] also
    when the list is empty or any input is [nan] (a core point without
    a prediction). *)
