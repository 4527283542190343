(** Canonical encoding of a {!Compile.suite_report}, for determinism
    gates.

    The compile service promises the same report whether the analysis
    cache is on or off and however many executor domains compile it.
    Schedules embed their graph, and a cache hit aliases the graph of
    the first structurally-equal region seen (names may differ, output
    never does), so the promise is stated over this canonical encoding:
    every semantically meaningful field — schedule slots and cycles,
    costs, the pass statistics with their convergence series,
    degradation ledger entries, retry and fault tallies — spelled out
    positionally, graph identities omitted. A pass's [minor_words] is
    host allocation, not behaviour: its position always reads 0.0.

    The qcheck differentials and the CI cache gate compare {!digest}
    values. *)

val render : Compile.suite_report -> string
(** The canonical encoding itself (stable across runs and processes;
    floats are rendered in hex notation, so no precision is lost). *)

val digest : Compile.suite_report -> string
(** MD5 of {!render}, hex-encoded. *)

val render_region : Compile.region_report -> string
(** Canonical encoding of one region report — the same encoding a suite
    render embeds. The serve loop stamps every reply with its digest, so
    a served compile can be byte-compared against a direct
    [Compile.run_region] of the same request. *)

val digest_region : Compile.region_report -> string
(** MD5 of {!render_region}, hex-encoded. *)
