(* pertalloc — whole-program allocation-effect analyzer.

   The third analyzer on the Lint_core engine: where pertlint checks
   single expressions and pertscan checks cross-module race/determinism
   properties, pertalloc enforces the zero-allocation hot-path contract.
   Functions annotated [@alloc.zero] must allocate nothing transitively;
   the analysis (Alloc_core) computes per-function allocation summaries
   from the typedtrees, propagates them over pertscan's cross-module
   call-graph resolution (Scan_graph) and reports every allocation site
   reachable from an annotated root, naming the site, the kind of
   allocation and the call chain from the root:

     A1  heap allocation reachable from an [@alloc.zero] root
     A2  boxed-float allocation on the zero-alloc hot path
     A3  per-iteration closure allocation in a loop on the hot path
     A4  a C call that only compares numbers on the hot path: a
         comparison at a type the compiler cannot specialise,
         Stdlib.min/max, or the Float.min/max family

   Suppression: [@lint.allow "A1"] at the site (or on the enclosing
   binding), same syntax as every other rule; pertscan's S4 credits the
   attributes this analysis exercises.  The static contract is
   cross-checked dynamically by bench/main.ml's Gc.minor_words budget
   (see README "Allocation discipline").

   Usage mirrors pertlint/pertscan:
     pertalloc [--rules A1,A2] [--stats] [--quiet] [--format=json] paths
   where paths point at the _build tree (the analysis reads .cmt files).
   Exit 1 on findings, 2 on a scope with zero scannable .cmts. *)

open Lint_core

let () =
  prog := "pertalloc";
  enabled_rules := List.map (fun r -> r.id) alloc_rules;
  let roots = ref [] in
  let spec = common_spec ~known:all_rules in
  let usage = "pertalloc [options] [dir-or-cmt ...]  (default: scan .)" in
  Arg.parse spec (fun p -> roots := p :: !roots) usage;
  let roots = if !roots = [] then [ "." ] else List.rev !roots in
  let cmts =
    collect_under ~suffix:".cmt" roots
    |> require_nonempty ~what:".cmt files" roots
  in
  let impls = List.filter_map load_cmt cmts in
  if impls = [] then begin
    Printf.eprintf
      "pertalloc: %d .cmt file(s) under %s but none was a scannable \
       implementation — wrong scope?\n"
      (List.length cmts)
      (String.concat " " roots);
    exit 2
  end;
  (* prepass over every unit first: alias maps and toplevel-ident tables
     must be complete before any body is summarised *)
  let prepared =
    List.map
      (fun l ->
        incr files_scanned;
        (l, Scan_graph.build_ctx ~modname:l.l_modname l.l_str))
      impls
  in
  Alloc_core.run ~report:true prepared;
  finish ()
