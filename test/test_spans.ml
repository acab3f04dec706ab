(** Request-level observability: spans, serving percentiles, and the
    cycle-attribution profiler.

    - Vmstats percentile estimation over log2 histograms (+ exact-max
      tracking, burst-start reset so percentiles measure the burst).
    - The deterministic measured burst: [Serving.measure]'s JSON report
      is byte-identical for any (jit x request) worker configuration,
      including a mid-burst retranslate-all; the merged span log is in
      request-slot order and its totals tie out against per-request
      cycles; the folded profile sums exactly to total serving cycles.
    - tc-print's cycle ranking is a total order (byte-stable reports).
    - The lease trace category stays sequential (contiguous seq) with two
      request workers racing for the lease, and its compile counts tie out
      against the lazy-translation counters. *)

(* ---- helpers ---- *)

(* Fresh engine through the standard steady-state bring-up: warm every
   endpoint, retranslate-all.  Lazy in-burst translation is on so frozen
   bursts exercise the translation-miss / lease-wait phases. *)
let warmed_engine ?(jit_workers = 1) ?(request_workers = 1)
    ?(trace : string option) () : Hhbc.Hunit.t * Core.Engine.t =
  let u = Vm.Loader.load Workloads.Endpoints.source in
  ignore (Hhbbc.Assert_insert.run u);
  ignore (Hhbbc.Bc_opt.run u);
  let opts = Core.Jit_options.default () in
  opts.Core.Jit_options.jit_workers <- jit_workers;
  opts.Core.Jit_options.request_workers <- request_workers;
  opts.Core.Jit_options.lazy_translate <- true;
  (match trace with
   | Some s -> opts.Core.Jit_options.trace <- Some s
   | None -> ());
  let eng = Core.Engine.install ~opts u in
  for round = 0 to 14 do
    List.iter
      (fun (ep : Workloads.Endpoints.endpoint) ->
         let reps = max 1 (ep.Workloads.Endpoints.ep_weight / 10) in
         for k = 0 to reps - 1 do
           ignore (Server.Perflab.call_endpoint u ep (round * 3 + k))
         done)
      Workloads.Endpoints.endpoints
  done;
  ignore (Core.Engine.retranslate_all eng);
  (u, eng)

(* First integer after ["<key>": ] in a one-line JSON record. *)
let field_int (line : string) (key : string) : int =
  let pat = Printf.sprintf "\"%s\": " key in
  let plen = String.length pat in
  let n = String.length line in
  let rec find i =
    if i + plen > n then Alcotest.failf "field %s missing in %s" key line
    else if String.sub line i plen = pat then i + plen
    else find (i + 1)
  in
  let start = find 0 in
  let stop = ref start in
  while !stop < n
        && (match line.[!stop] with '0' .. '9' | '-' -> true | _ -> false)
  do
    incr stop
  done;
  int_of_string (String.sub line start (!stop - start))

let contains (s : string) (sub : string) : bool =
  let n = String.length sub in
  let rec has i =
    i + n <= String.length s && (String.sub s i n = sub || has (i + 1))
  in
  has 0

(* ---- Vmstats: percentile estimation and max tracking ---- *)

let fresh_hist () =
  { Obs.Vmstats.h_name = "test"; h_buckets = Array.make 63 0;
    h_count = 0; h_sum = 0; h_max = 0 }

let test_percentile () =
  let h = fresh_hist () in
  Alcotest.(check (float 0.0)) "empty histogram -> 0" 0.0
    (Obs.Vmstats.percentile h 50.0);
  for v = 1 to 100 do Obs.Vmstats.observe_record h v done;
  Alcotest.(check int) "max is exact" 100 (Obs.Vmstats.histogram_max h);
  let p50 = Obs.Vmstats.percentile h 50.0 in
  let p95 = Obs.Vmstats.percentile h 95.0 in
  let p99 = Obs.Vmstats.percentile h 99.0 in
  Alcotest.(check bool) "p50 within sample range" true
    (p50 > 0.0 && p50 <= 100.0);
  Alcotest.(check bool) "percentiles are monotonic" true
    (p50 <= p95 && p95 <= p99);
  Alcotest.(check bool) "estimates clamp to the exact max" true
    (p99 <= 100.0);
  (* log2 bucket 32..64 holds ranks 32..63: the p50 estimate (rank 50)
     must land inside that bucket's range *)
  Alcotest.(check bool) "p50 lands in the rank-50 bucket" true
    (p50 >= 32.0 && p50 <= 64.0)

let test_percentile_singleton () =
  let h = fresh_hist () in
  Obs.Vmstats.observe_record h 7;
  List.iter
    (fun p ->
       Alcotest.(check (float 0.0))
         (Printf.sprintf "single sample: p%.0f is the sample" p) 7.0
         (Obs.Vmstats.percentile h p))
    [ 50.0; 95.0; 99.0 ]

(* Burst-start reset: the serving histogram measures the burst, never
   warmup residue (regression for the percentile-pollution bug class). *)
let test_histogram_burst_reset () =
  let u, eng = warmed_engine () in
  let h = Obs.Vmstats.histogram "serving.request_cycles" in
  (* simulate warmup residue left in the registry histogram *)
  for _ = 1 to 17 do Obs.Vmstats.observe_record h 999_999 done;
  let requests = Server.Serving.mix ~rounds:2 () in
  ignore (Server.Serving.run ~workers:1 u eng requests);
  Alcotest.(check int) "histogram holds exactly the burst's requests"
    (Array.length requests) h.Obs.Vmstats.h_count;
  Alcotest.(check bool) "warmup residue is gone" true
    (Obs.Vmstats.histogram_max h < 999_999)

(* ---- The deterministic measured burst ---- *)

let measured_report (jw, rw) : string * Server.Serving.measured
                               * Server.Serving.request array =
  let u, eng = warmed_engine ~jit_workers:jw ~request_workers:rw () in
  let requests = Server.Serving.mix ~rounds:6 () in
  let trigger =
    (Array.length requests / 2,
     fun () -> ignore (Core.Engine.retranslate_all eng))
  in
  let m = Server.Serving.measure ~trigger u eng requests in
  (Server.Serving.report_json requests m, m, requests)

let test_report_bit_identical () =
  let configs = [ (1, 1); (2, 2); (4, 1); (1, 4) ] in
  let runs = List.map (fun c -> (c, measured_report c)) configs in
  let _, (r1, _, _) = List.hd runs in
  Alcotest.(check bool) "report carries its schema tag" true
    (contains r1 "\"serving-report/1\"");
  (* the report's key contract: percentiles, the six span phases, the
     profile summary and the per-endpoint breakdown *)
  List.iter
    (fun key ->
       Alcotest.(check bool) ("report has key " ^ key) true
         (contains r1 (Printf.sprintf "\"%s\": " key)))
    [ "weighted_cycles_per_req"; "request_cycles"; "p50"; "p95"; "p99";
      "max"; "request_cycles_log2_estimate"; "phases"; "epoch_adopt";
      "jit_dispatch"; "interp_fallback"; "miss_enqueue"; "lease_wait";
      "retranslate_pause"; "profile"; "per_endpoint" ];
  List.iter
    (fun ((jw, rw), (r, _, _)) ->
       Alcotest.(check string)
         (Printf.sprintf "serving report bytes @ jw=%d rw=%d" jw rw) r1 r)
    (List.tl runs)

let test_span_merge_and_profile_sum () =
  let _, m, requests = measured_report (1, 1) in
  let r = m.Server.Serving.me_result in
  let n = Array.length requests in
  let spans = r.Server.Serving.sv_spans in
  Alcotest.(check int) "one span per request" n (Array.length spans);
  Array.iteri
    (fun i (sp : Obs.Span.span) ->
       Alcotest.(check int)
         (Printf.sprintf "span %d in request-slot order" i) i
         sp.Obs.Span.sp_slot;
       Alcotest.(check int)
         (Printf.sprintf "span %d total ties to per-request cycles" i)
         r.Server.Serving.sv_cycles.(i) sp.Obs.Span.sp_total)
    spans;
  let total = Array.fold_left ( + ) 0 r.Server.Serving.sv_cycles in
  Alcotest.(check int)
    "folded profile sums exactly to total serving cycles" total
    m.Server.Serving.me_profile_total;
  Alcotest.(check int) "folded entries agree with the merged profile"
    m.Server.Serving.me_profile_total
    (List.fold_left (fun a (_, c) -> a + c) 0 m.Server.Serving.me_profile);
  (* the mid-burst retranslate fired on exactly one request's timeline *)
  let idx = Obs.Span.phase_index Obs.Span.RetransPause in
  Alcotest.(check int) "one retranslate-pause exposure" 1
    (Array.fold_left (fun a sp -> a + sp.Obs.Span.sp_counts.(idx)) 0 spans);
  (* lazy in-burst traffic was actually measured *)
  let miss = Obs.Span.phase_index Obs.Span.Miss in
  Alcotest.(check bool) "miss phase saw traffic" true
    (Array.exists (fun sp -> sp.Obs.Span.sp_counts.(miss) > 0) spans)

(* ---- tc-print: cycle ranking ---- *)

let test_tc_print_sort_cycles () =
  let report () =
    let _, eng = warmed_engine () in
    Core.Tc_print.report ~top:10 ~sort:Core.Tc_print.By_cycles eng
  in
  let r1 = report () and r2 = report () in
  Alcotest.(check string) "cycle ranking is byte-stable" r1 r2;
  let header = List.hd (String.split_on_char '\n' r1) in
  Alcotest.(check bool) "header names the ranking key" true
    (contains header "by cycles");
  (* ranked cycles are non-increasing *)
  let ranked =
    List.filter (fun l -> String.length l > 0 && l.[0] = '#')
      (String.split_on_char '\n' r1)
  in
  let cycle_of line =
    (* cycles=N, followed by the liveness columns *)
    let pat = "cycles=" in
    let n = String.length line in
    let rec find i =
      if i + String.length pat > n then Alcotest.failf "no cycles= in %s" line
      else if String.sub line i (String.length pat) = pat then
        i + String.length pat
      else find (i + 1)
    in
    let start = find 0 in
    let rec fin j = if j < n && line.[j] >= '0' && line.[j] <= '9'
      then fin (j + 1) else j
    in
    int_of_string (String.sub line start (fin start - start))
  in
  let cs = List.map cycle_of ranked in
  Alcotest.(check bool) "report lists translations" true (cs <> []);
  let rec non_increasing = function
    | a :: (b :: _ as rest) -> a >= b && non_increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "cycle ranking is non-increasing" true
    (non_increasing cs)

(* ---- lease trace: sequential seq with two workers racing ---- *)

let test_lease_trace_seq () =
  let u, eng =
    warmed_engine ~jit_workers:2 ~request_workers:2 ~trace:"lease" ()
  in
  (* warmup misses compile under the lease too: the ring holds every
     lease-held miss since install, and the counter counts every lazy
     compile since *)
  let n0 = List.length (Obs.Trace.drain ()) in
  let requests = Server.Serving.mix ~rounds:4 () in
  ignore (Server.Serving.run u eng requests);
  let lines = Obs.Trace.drain () in
  Obs.Trace.configure ~spec:None ();
  Alcotest.(check bool) "burst produced lease events" true
    (List.length lines > n0);
  List.iteri
    (fun i line ->
       Alcotest.(check int)
         (Printf.sprintf "event %d: seq is contiguous" i) i
         (field_int line "seq");
       Alcotest.(check bool)
         (Printf.sprintf "event %d: category is lease" i) true
         (let pat = "\"cat\": \"lease\"" in
          let n = String.length line and p = String.length pat in
          let rec has j =
            j + p <= n && (String.sub line j p = pat || has (j + 1))
          in
          has 0);
       Alcotest.(check bool)
         (Printf.sprintf "event %d: one compile per lease-held miss" i) true
         (let c = field_int line "compiled" in c = 0 || c = 1))
    lines;
  (* which worker wins the lease is schedule-dependent; the compile
     total is not *)
  let compiled =
    List.fold_left (fun a line -> a + field_int line "compiled") 0 lines
  in
  Alcotest.(check int) "lease compiles tie out against the counter"
    (Obs.Vmstats.counter_value "lazy_translate.compiled") compiled

(* ---- snapshots: one gauge line every N completed requests ---- *)

let test_snapshot_stream () =
  let u, eng = warmed_engine () in
  let path = Filename.temp_file "snap" ".jsonl" in
  Obs.Snapshot.configure ~path ~every:10 ();
  let requests = Server.Serving.mix ~rounds:4 () in
  let m = Server.Serving.measure u eng requests in
  ignore m;
  Obs.Snapshot.close ();
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do lines := input_line ic :: !lines done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  let lines = List.rev !lines in
  Alcotest.(check int) "one line per interval"
    (Array.length requests / 10) (List.length lines);
  List.iteri
    (fun i line ->
       Alcotest.(check int)
         (Printf.sprintf "line %d: req_done is the interval boundary" i)
         ((i + 1) * 10)
         (field_int line "req_done"))
    lines

let suite =
  ( "spans",
    [ Alcotest.test_case "vmstats percentile estimation" `Quick
        test_percentile;
      Alcotest.test_case "vmstats percentile singleton" `Quick
        test_percentile_singleton;
      Alcotest.test_case "serving histogram resets at burst start" `Quick
        test_histogram_burst_reset;
      Alcotest.test_case "serving report is bit-identical across configs"
        `Quick test_report_bit_identical;
      Alcotest.test_case "span merge order + profile sum invariant" `Quick
        test_span_merge_and_profile_sum;
      Alcotest.test_case "tc-print cycle ranking" `Quick
        test_tc_print_sort_cycles;
      Alcotest.test_case "lease trace seq stays sequential" `Quick
        test_lease_trace_seq;
      Alcotest.test_case "snapshot stream" `Quick test_snapshot_stream ] )
