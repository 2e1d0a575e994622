(** Use-after-free detector — the paper's §7.1 static checker.

    Maintains the alive/dead state of every local by tracking
    [StorageLive]/[StorageDead]/[Drop] (via {!Analysis.Storage}), runs a
    may-points-to analysis per body, and reports any dereference of a
    pointer/reference whose pointee may be dead. Interprocedural
    coverage comes from deref-parameter summaries (the parameter
    indices a function transitively dereferences), computed bottom-up
    over the SCC-condensed call graph by {!Analysis.Summary}. *)

open Ir

val run_ctx :
  ?assume_extern_derefs:bool -> Analysis.Cache.t -> Report.finding list
(** Run the detector through a shared analysis context.
    [assume_extern_derefs] (default [true]) is the paper's
    approximation that FFI callees dereference their raw-pointer
    arguments; it is the source of the evaluation's three false
    positives and also what catches the Fig. 7 CVE. *)

val run : ?assume_extern_derefs:bool -> Mir.program -> Report.finding list
(** Run the detector over every body of a program (private context). *)
