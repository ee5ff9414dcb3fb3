(* End-to-end tests for tools/pertlint/pertalloc: the interprocedural
   allocation-effect analysis (and the comparison-call rule A4 that
   shares its call graph) runs as a subprocess over the fixture .cmt
   files in test/alloc_fixtures. Every rule is exercised as a pair: a true positive asserting the documented diagnostic, location
   and (for A1) the interprocedural call chain, and a structurally-
   matched true negative that must stay silent.

   The test runs from _build/default/test/alloc, so the executables
   and the fixture objects are reachable by relative path. *)

let alloc_exe =
  Filename.concat (Filename.concat ".." "..") "tools/pertlint/pertalloc.exe"

let scan_exe =
  Filename.concat (Filename.concat ".." "..") "tools/pertlint/pertscan.exe"

let fixture_dir = "../alloc_fixtures/.alloc_fixtures.objs/byte"

let fixture_cmt modname =
  Printf.sprintf "%s/alloc_fixtures__%s.cmt" fixture_dir modname

(* The library wrapper module, compiled from dune's generated .ml-gen —
   a .cmt pertalloc deliberately refuses to treat as a scannable unit. *)
let wrapper_cmt = Printf.sprintf "%s/alloc_fixtures.cmt" fixture_dir

(* Returns (exit_code, output_lines), stderr included — the exit-2
   config errors print there. *)
let run exe args =
  let out = Filename.temp_file "pertalloc" ".out" in
  let cmd =
    Printf.sprintf "%s %s > %s 2>&1" (Filename.quote exe)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out)
  in
  let code = Sys.command cmd in
  let ic = open_in out in
  let rec read acc =
    match input_line ic with
    | line -> read (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = read [] in
  close_in ic;
  Sys.remove out;
  (code, lines)

let contains_sub line sub =
  let n = String.length line and m = String.length sub in
  let rec go i = i + m <= n && (String.sub line i m = sub || go (i + 1)) in
  m = 0 || go 0

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let tagged rule lines =
  List.filter (fun l -> contains_sub l (Printf.sprintf "[%s]" rule)) lines

(* A true positive: pertalloc on the fixture alone exits 1 with exactly
   [findings] lines carrying the rule tag (one per documented case in
   the fixture), exactly one of them pinned to the documented location,
   and that one containing every documented message fragment. *)
let fires ~findings ~rule ~modname ~loc ~fragments () =
  let code, lines = run alloc_exe [ fixture_cmt modname ] in
  check_int (rule ^ " exit code") 1 code;
  let hits = tagged rule lines in
  check_int
    (Printf.sprintf "[%s] lines for %s" rule modname)
    findings (List.length hits);
  match List.filter (fun l -> contains_sub l (loc ^ ":")) hits with
  | [ line ] ->
      List.iter
        (fun frag ->
          check_bool
            (Printf.sprintf "%s diagnostic mentions %S" rule frag)
            true (contains_sub line frag))
        fragments
  | other ->
      Alcotest.failf "%s: expected exactly one [%s] line at %s, got %d" rule
        rule loc (List.length other)

(* A true negative: the structurally-matched clean fixture produces no
   output at all and exits 0. *)
let silent ~modname () =
  let code, lines = run alloc_exe [ fixture_cmt modname ] in
  check_int (modname ^ " exit code") 0 code;
  check_int (modname ^ " is clean") 0 (List.length lines)

(* A1: the allocation is two calls away from the annotated root, and
   the diagnostic must spell out the interprocedural chain. *)
let a1_chain_true_positive =
  fires ~findings:1 ~rule:"A1" ~modname:"A1_bad" ~loc:"test/alloc_fixtures/a1_bad.ml:4"
    ~fragments:
      [
        "constructor '::' allocation";
        "on the zero-alloc path from [@alloc.zero] 'A1_bad.root'";
        "call chain: A1_bad.root -> A1_bad.middle -> A1_bad.helper";
      ]

let a2_float_option_true_positive =
  fires ~findings:2 ~rule:"A2" ~modname:"A2_bad"
    ~loc:"test/alloc_fixtures/a2_bad.ml:5"
    ~fragments:
      [
        "'Some' of a float allocates an option cell around a boxed float";
        "[@alloc.zero] 'A2_bad.lookup'";
        "directly in the annotated body";
      ]

(* A float let-bound to a computed value stays unboxed until a store
   into a mixed record boxes it: an identifier on the right-hand side
   can still mint a box. *)
let a2_let_bound_store_true_positive =
  fires ~findings:2 ~rule:"A2" ~modname:"A2_bad"
    ~loc:"test/alloc_fixtures/a2_bad.ml:15"
    ~fragments:
      [
        "computed float stored into mixed-representation field 'now' is \
         boxed";
        "[@alloc.zero] 'A2_bad.advance'";
      ]

(* A4: a polymorphic comparison two calls deep, a Float.max and a
   Stdlib.max at int, each at its own line. *)
let a4_fires ~loc ~fragments =
  fires ~findings:3 ~rule:"A4" ~modname:"A4_bad"
    ~loc:("test/alloc_fixtures/a4_bad.ml:" ^ loc)
    ~fragments

let a4_polymorphic_compare =
  a4_fires ~loc:"6"
    ~fragments:
      [
        "'<' at a type the compiler cannot specialise calls compare_val";
        "call chain: A4_bad.admit -> A4_bad.within";
      ]

let a4_float_max =
  a4_fires ~loc:"8"
    ~fragments:
      [ "'Float.max' calls caml_signbit"; "[@alloc.zero] 'A4_bad.clamp'" ]

let a4_stdlib_max =
  a4_fires ~loc:"9"
    ~fragments:
      [
        "'max' compares through compare_val at every type";
        "[@alloc.zero] 'A4_bad.larger'";
      ]

let a3_loop_closure_true_positive =
  fires ~findings:1 ~rule:"A3" ~modname:"A3_bad" ~loc:"test/alloc_fixtures/a3_bad.ml:6"
    ~fragments:
      [
        "per-iteration local function 'f' rebuilds a closure capturing \
         2 variable(s)";
        "[@alloc.zero] 'A3_bad.root'";
      ]

(* [@lint.allow "A1"] on the allocation site: pertalloc must stay
   silent, and pertscan's stale-allow analysis (S4) — which re-runs the
   allocation analysis in tracking mode — must see the allow as
   credited, not stale. *)
let allow_suppresses_and_is_credited () =
  silent ~modname:"Alloc_allow_ok" ();
  let code, lines =
    run scan_exe [ "--rules"; "S4"; fixture_cmt "Alloc_allow_ok" ]
  in
  check_int "S4 exit code on credited alloc allow" 0 code;
  check_int "no stale-allow finding" 0 (List.length (tagged "S4" lines))

(* The whole fixture tree: exactly one finding per rule, nothing from
   the true negatives, and the stats footer adds up. *)
let whole_tree_finding_counts () =
  let code, lines = run alloc_exe [ "--stats"; fixture_dir ] in
  check_int "whole-tree exit code" 1 code;
  check_int "one A1 finding" 1 (List.length (tagged "A1" lines));
  check_int "two A2 findings" 2 (List.length (tagged "A2" lines));
  check_int "one A3 finding" 1 (List.length (tagged "A3" lines));
  check_int "three A4 findings" 3 (List.length (tagged "A4" lines));
  check_bool "stats total" true
    (List.exists (fun l -> contains_sub l "total: 7 violation(s)") lines)

let json_format () =
  let code, lines = run alloc_exe [ "--format=json"; fixture_cmt "A2_bad" ] in
  check_int "json exit code" 1 code;
  let blob = String.concat "\n" lines in
  List.iter
    (fun frag ->
      check_bool (Printf.sprintf "json contains %S" frag) true
        (contains_sub blob frag))
    [
      "\"rule\": \"A2\"";
      "\"file\": \"test/alloc_fixtures/a2_bad.ml\"";
      "\"line\": 5";
      "\"severity\": \"error\"";
    ]

(* Exit-code contract for misdirected scopes, shared with pertlint and
   pertscan: an empty directory and a wrapper-only scope are
   configuration errors — exit 2, never a clean 0. *)
let fresh_empty_dir () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "pertalloc_empty_scope"
  in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  dir

let empty_scope_is_an_error () =
  let code, lines = run alloc_exe [ fresh_empty_dir () ] in
  check_int "exit code on empty scope" 2 code;
  check_bool "explains the empty scope" true
    (List.exists (fun l -> contains_sub l "no .cmt files") lines)

let wrapper_only_scope_is_an_error () =
  let code, lines = run alloc_exe [ wrapper_cmt ] in
  check_int "exit code on wrapper-only scope" 2 code;
  check_bool "explains the unscannable scope" true
    (List.exists
       (fun l -> contains_sub l "none was a scannable implementation")
       lines)

let () =
  Alcotest.run "pertalloc"
    [
      ( "a1-heap-alloc",
        [
          ("allocation two calls from the root carries the chain", `Quick,
           a1_chain_true_positive);
          ("pure-arithmetic call chain is silent", `Quick,
           silent ~modname:"A1_ok");
        ] );
      ( "a2-boxed-floats",
        [
          ("Some of a float is a true positive", `Quick,
           a2_float_option_true_positive);
          ("computed stores into a flat float record are silent", `Quick,
           silent ~modname:"A2_ok");
          ("let-bound computed float stored into a mixed record", `Quick,
           a2_let_bound_store_true_positive);
        ] );
      ( "a3-loop-closures",
        [
          ("per-iteration capturing closure is a true positive", `Quick,
           a3_loop_closure_true_positive);
          ("hoisted toplevel helper in the loop is silent", `Quick,
           silent ~modname:"A3_ok");
        ] );
      ( "a4-compare-calls",
        [
          ("polymorphic comparison reached through a call", `Quick,
           a4_polymorphic_compare);
          ("Float.max on the hot path", `Quick, a4_float_max);
          ("Stdlib.max at int", `Quick, a4_stdlib_max);
          ("specialised comparisons are silent", `Quick,
           silent ~modname:"A4_ok");
        ] );
      ( "driver",
        [
          ("allowed site is suppressed and credits its allow", `Quick,
           allow_suppresses_and_is_credited);
          ("whole fixture tree: exact finding counts", `Quick,
           whole_tree_finding_counts);
          ("json findings carry file/line/rule", `Quick, json_format);
          ("empty scope exits 2", `Quick, empty_scope_is_an_error);
          ("wrapper-only scope exits 2", `Quick,
           wrapper_only_scope_is_an_error);
        ] );
    ]
