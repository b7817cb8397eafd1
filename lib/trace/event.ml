type kind =
  | Acquire_local
  | Acquire_global
  | Handoff_within_cohort
  | Handoff_global
  | Abort
  | Starvation_limit_hit
  | Enqueue
  | Gcr_admit
  | Gcr_exit
  | Gcr_park
  | Gcr_unpark

type t = { at : int; tid : int; cluster : int; kind : kind }

let kind_to_string = function
  | Acquire_local -> "acquire_local"
  | Acquire_global -> "acquire_global"
  | Handoff_within_cohort -> "handoff_within_cohort"
  | Handoff_global -> "handoff_global"
  | Abort -> "abort"
  | Starvation_limit_hit -> "starvation_limit_hit"
  | Enqueue -> "enqueue"
  | Gcr_admit -> "gcr_admit"
  | Gcr_exit -> "gcr_exit"
  | Gcr_park -> "gcr_park"
  | Gcr_unpark -> "gcr_unpark"

let kind_of_string = function
  | "acquire_local" -> Some Acquire_local
  | "acquire_global" -> Some Acquire_global
  | "handoff_within_cohort" -> Some Handoff_within_cohort
  | "handoff_global" -> Some Handoff_global
  | "abort" -> Some Abort
  | "starvation_limit_hit" -> Some Starvation_limit_hit
  | "enqueue" -> Some Enqueue
  | "gcr_admit" -> Some Gcr_admit
  | "gcr_exit" -> Some Gcr_exit
  | "gcr_park" -> Some Gcr_park
  | "gcr_unpark" -> Some Gcr_unpark
  | _ -> None

let is_acquire = function
  | Acquire_local | Acquire_global -> true
  | Handoff_within_cohort | Handoff_global | Abort | Starvation_limit_hit
  | Enqueue | Gcr_admit | Gcr_exit | Gcr_park | Gcr_unpark ->
      false

let is_release = function
  | Handoff_within_cohort | Handoff_global -> true
  | Acquire_local | Acquire_global | Abort | Starvation_limit_hit | Enqueue
  | Gcr_admit | Gcr_exit | Gcr_park | Gcr_unpark ->
      false
