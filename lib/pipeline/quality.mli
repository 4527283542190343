(** Schedule-quality telemetry: one ledger record per compiled region —
    schedule length against the tight length lower bound, achieved
    occupancy against the backend's register-pressure target, and
    convergence shape (iterations-to-best out of iterations run) —
    appended as JSONL and summarized over a corpus by [gpuaco report].

    Records are derived from the {!Compile.region_report} alone;
    writing the ledger never recomputes or perturbs a compile. The
    ledger file is append-only, one JSON object per line, so a daemon
    streams into it across requests and malformed lines (a torn write)
    are skipped on load rather than poisoning the corpus. *)

type record = {
  q_region : string;
  q_n : int;  (** region size in instructions *)
  q_backend : string;  (** the product backend *)
  q_rung : string;  (** {!Robust.degradation_label} of the product run *)
  q_length : int;  (** product schedule length, cycles *)
  q_length_lb : int;  (** the tight length lower bound ([Compile.region_report.length_lb]) *)
  q_gap : int;  (** [length - length_lb] *)
  q_occupancy : int;
  q_occ_target : int;  (** what the backend aimed for *)
  q_aprp_vgpr : int;
  q_aprp_sgpr : int;
  q_iterations : int;  (** product run, both passes *)
  q_iters_to_best : int;
      (** index where the convergence series first reached its final
          best — iterations after this idled (stagnation) *)
  q_improved : bool;  (** ACO beat the AMD heuristic *)
}

val iters_to_best : int array -> int
(** First index of the minimum of a best-so-far series; [0] for an
    empty series. *)

val of_region : Compile.region_report -> record

val of_report : Compile.suite_report -> record list
(** Every region of the suite, in suite order. *)

(** {2 Ledger file} *)

val to_json_line : record -> string
(** One record as a single-line JSON object (no trailing newline). *)

val of_json_line : string -> record option
(** Inverse of {!to_json_line}; [None] on malformed or foreign lines. *)

val append : file:string -> record list -> unit
(** Append records to the ledger, creating it if missing. Raises
    [Sys_error] when the file cannot be opened or written (a failed
    final flush included). *)

val load : file:string -> record list
(** Read a ledger back, skipping malformed lines. Raises [Sys_error]
    if the file cannot be opened. *)

(** {2 Summary} *)

type summary = {
  s_count : int;
  s_clean : int;
  s_at_lb : int;  (** regions whose schedule met the lower bound *)
  s_mean_gap : float;
  s_mean_gap_ratio : float;  (** mean gap/lb over records with lb > 0 *)
  s_max_gap : int;
  s_max_gap_region : string;
  s_occ_met : int;  (** regions at or above their occupancy target *)
  s_mean_iterations : float;
  s_mean_iters_to_best : float;
  s_improved : int;
}

val summarize : record list -> summary

val summarize_by_backend : record list -> (string * summary) list
(** One summary per product backend appearing in the corpus, sorted by
    backend name — how a race's wins are distributed. *)

val render_summary : ?top:int -> record list -> string
(** Human-readable corpus summary, with the [top] (default 5) worst
    regions by gap. When the corpus mixes backends (a race or auto
    policy), a per-backend section splits the gap distribution and
    occupancy hit rate. *)
