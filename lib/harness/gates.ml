let transfers_claim ~mcs_per_acq ~cohort_per_acq =
  if Float.is_nan mcs_per_acq || Float.is_nan cohort_per_acq then
    Error "no coherence data (native run?)"
  else if cohort_per_acq < mcs_per_acq then
    Ok
      (Printf.sprintf
         "C-BO-MCS moves fewer lock-word transfers than MCS (%.3f < %.3f per \
          acquisition)"
         cohort_per_acq mcs_per_acq)
  else
    Error
      (Printf.sprintf
         "C-BO-MCS remote transfers per acquisition (%.3f) not below MCS \
          (%.3f)"
         cohort_per_acq mcs_per_acq)

let lines_claim ~cna_lines ~cohort_lines =
  if cna_lines <= 0 || cohort_lines <= 0 then
    Error "no per-site line counts (native run?)"
  else if cna_lines < cohort_lines then
    Ok
      (Printf.sprintf
         "CNA touches fewer distinct lock-metadata cache lines than C-BO-MCS \
          (%d < %d)"
         cna_lines cohort_lines)
  else
    Error
      (Printf.sprintf
         "CNA lock-metadata lines (%d) not below C-BO-MCS (%d)" cna_lines
         cohort_lines)

let pred_core_locks = [ "MCS"; "C-BO-MCS"; "CNA" ]
let pred_core_threads = [ 1; 8; 64 ]
let pred_err_band_pct = 25.

let prediction_claim ~err_pcts =
  if err_pcts = [] then Error "no core-curve predictions to gate"
  else if List.exists Float.is_nan err_pcts then
    Error "a core point has no prediction (native run, or empty rollup?)"
  else
    let med =
      Numa_base.Stats.percentile (Array.of_list (List.map Float.abs err_pcts)) 50.
    in
    if med <= pred_err_band_pct then
      Ok
        (Printf.sprintf
           "median |prediction error| on the core curves is %.1f%% (band: \
            %.0f%%, %d points)"
           med pred_err_band_pct (List.length err_pcts))
    else
      Error
        (Printf.sprintf
           "median |prediction error| %.1f%% exceeds the %.0f%% band (%d \
            points)"
           med pred_err_band_pct (List.length err_pcts))
