(** Jumpstart (paper §6.2): serialized warmup state round-trips into a
    fresh engine.

    - Round-trip parity: dump after warmup, restore in a fresh engine,
      and the restored process reaches steady-state optimized serving
      with zero profiling translations and zero retranslate-alls, output
      hash bit-identical to the continuously-warmed run — across worker
      configurations {1x1, 4x4}, and across a config change (an image
      dumped by a 1x1 process restores into a 4x4 one).
    - Degradation: missing, foreign, truncated, version-skewed,
      bit-flipped, and wrong-options images are all rejected with a
      distinct reason and fall back to a working cold start — never a
      crash. *)

let with_temp (f : string -> 'a) : 'a =
  let path = Filename.temp_file "jumpstart_test" ".img" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let opts_with ~(jw : int) ~(rw : int) () : Core.Jit_options.t =
  let o = Core.Jit_options.default () in
  o.Core.Jit_options.jit_workers <- jw;
  o.Core.Jit_options.request_workers <- rw;
  o

(* trigger small enough to keep the suite fast, large enough that every
   endpoint profiles and retranslate-all produces the full optimized set *)
let trigger = 150

(* ---- round-trip parity ---- *)

let test_roundtrip_parity () =
  List.iter
    (fun (jw, rw) ->
       let tag = Printf.sprintf "@ jw=%d rw=%d" jw rw in
       let r =
         Server.Startup.measure_startup ~opts:(opts_with ~jw ~rw ())
           ~trigger_requests:trigger ()
       in
       let cold = r.Server.Startup.sr_cold
       and jump = r.Server.Startup.sr_jump in
       Alcotest.(check bool) ("output hash identical " ^ tag) true
         r.Server.Startup.sr_hash_match;
       Alcotest.(check int) ("zero profiling translations " ^ tag) 0
         jump.Server.Startup.su_prof_translations;
       Alcotest.(check int) ("zero retranslate-alls " ^ tag) 0
         jump.Server.Startup.su_retranslate_runs;
       Alcotest.(check int) ("same optimized translation count " ^ tag)
         cold.Server.Startup.su_opt_translations
         jump.Server.Startup.su_opt_translations;
       Alcotest.(check int) ("same optimized code size " ^ tag)
         cold.Server.Startup.su_main_code_kb
         jump.Server.Startup.su_main_code_kb;
       Alcotest.(check bool) ("jumpstart steady no later than cold " ^ tag)
         true (r.Server.Startup.sr_delta_requests >= 0);
       Alcotest.(check bool) ("image is non-trivial " ^ tag) true
         (r.Server.Startup.sr_image_bytes > 48))
    [ (1, 1); (4, 4) ]

(* the options fingerprint excludes execution-time knobs: a 1x1-dumped
   image must restore into a 4x4 process, byte-identically *)
let test_cross_worker_restore () =
  with_temp (fun path ->
      (match
         Server.Startup.dump ~opts:(opts_with ~jw:1 ~rw:1 ())
           ~trigger_requests:trigger ~path ()
       with
       | Ok bytes ->
         Alcotest.(check bool) "dump wrote an image" true (bytes > 48)
       | Error e -> Alcotest.failf "dump failed: %s" e);
      let r =
        Server.Startup.restore ~opts:(opts_with ~jw:4 ~rw:4 ()) ~path ()
      in
      Alcotest.(check bool) "1x1 image adopted by 4x4 process" true
        r.Server.Startup.rs_jumpstarted;
      let eng = r.Server.Startup.rs_engine in
      Alcotest.(check int) "no profiling translations" 0
        eng.Core.Engine.n_profiling;
      Alcotest.(check bool) "optimized code present" true
        (eng.Core.Engine.n_optimized > 0);
      (* the adopted engine serves the stream with interpreter-identical
         output (a few of each endpoint) *)
      let _, outputs, _, _, _ =
        Server.Startup.serve_measured r.Server.Startup.rs_unit eng
          ~total:40 ~retranslate_at:None
      in
      let u2 = Server.Startup.load_unit () in
      let o2 = opts_with ~jw:1 ~rw:1 () in
      o2.Core.Jit_options.mode <- Core.Jit_options.Interp;
      let eng2 = Core.Engine.install ~opts:o2 u2 in
      ignore eng2;
      let _, expect, _, _, _ =
        Server.Startup.serve_measured u2 eng2 ~total:40 ~retranslate_at:None
      in
      Alcotest.(check (array string)) "interpreter-identical output"
        expect outputs)

(* ---- lifecycle: an image captured after evict+compact restores ---- *)

let test_compacted_cache_restore () =
  with_temp (fun path ->
      (* warm, shift the traffic until the lifecycle evicts and compacts,
         then capture: the image must hold only the survivors (evicted
         entries are filtered out), and a fresh process must adopt it and
         serve interpreter-identically.  The tc knobs are execution-time
         options, so the donor's lifecycle config doesn't poison the
         digest for a receiver running without it. *)
      let opts = opts_with ~jw:1 ~rw:1 () in
      opts.Core.Jit_options.tc_evict_threshold <- 3;
      opts.Core.Jit_options.tc_compact <- true;
      let eng, u =
        Server.Startup.warm ~opts ~trigger_requests:trigger () in
      for salt = 1 to 12 do
        ignore
          (Server.Serving.run ~workers:1 u eng
             (Server.Serving.mix_shifted ~salt ~rounds:2 ()));
        ignore (Core.Engine.tc_lifecycle_tick eng)
      done;
      Alcotest.(check bool) "lifecycle evicted before the capture" true
        (Obs.Vmstats.counter_value "tc.evicted" > 0);
      Alcotest.(check int) "capture sees a hole-free cache" 0
        (Simcpu.Codecache.holes_bytes eng.Core.Engine.cache);
      let survivors = eng.Core.Engine.n_optimized in
      Alcotest.(check bool) "some optimized code survived" true
        (survivors > 0);
      (match Core.Engine.capture_image eng with
       | None -> Alcotest.fail "nothing to capture after compaction"
       | Some im ->
         let digest = Core.Jumpstart.unit_digest u opts in
         ignore (Core.Jumpstart.save ~path ~digest im));
      let r =
        Server.Startup.restore ~opts:(opts_with ~jw:1 ~rw:1 ()) ~path () in
      Alcotest.(check bool) "compacted image adopted" true
        r.Server.Startup.rs_jumpstarted;
      let eng2 = r.Server.Startup.rs_engine in
      Alcotest.(check int) "survivor count restored" survivors
        eng2.Core.Engine.n_optimized;
      Alcotest.(check int) "restored cache has no holes" 0
        (Simcpu.Codecache.holes_bytes eng2.Core.Engine.cache);
      let _, outputs, _, _, _ =
        Server.Startup.serve_measured r.Server.Startup.rs_unit eng2
          ~total:40 ~retranslate_at:None
      in
      let u3 = Server.Startup.load_unit () in
      let o3 = opts_with ~jw:1 ~rw:1 () in
      o3.Core.Jit_options.mode <- Core.Jit_options.Interp;
      let eng3 = Core.Engine.install ~opts:o3 u3 in
      ignore eng3;
      let _, expect, _, _, _ =
        Server.Startup.serve_measured u3 eng3 ~total:40 ~retranslate_at:None
      in
      Alcotest.(check (array string))
        "restored-from-compacted output is interpreter-identical"
        expect outputs)

(* ---- degradation: every bad image falls back to a working cold start ---- *)

(** Restore against [path], assert rejection with [expect] in the reason,
    and prove the fallback engine actually works by serving a request. *)
let check_falls_back ~(what : string) ~(expect : string) (path : string) =
  let r = Server.Startup.restore ~path () in
  Alcotest.(check bool) (what ^ ": rejected") false
    r.Server.Startup.rs_jumpstarted;
  (match r.Server.Startup.rs_error with
   | None -> Alcotest.failf "%s: no error reason reported" what
   | Some reason ->
     let contains s sub =
       let n = String.length sub in
       let rec go i =
         i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
       in
       go 0
     in
     if not (contains reason expect) then
       Alcotest.failf "%s: reason %S does not mention %S" what reason expect);
  let eng = r.Server.Startup.rs_engine in
  Alcotest.(check int) (what ^ ": engine is cold") 0
    eng.Core.Engine.n_optimized;
  let _, outputs, _, _, _ =
    Server.Startup.serve_measured r.Server.Startup.rs_unit eng ~total:1
      ~retranslate_at:None
  in
  Alcotest.(check bool) (what ^ ": cold engine serves") true
    (String.length outputs.(0) > 0)

let test_missing_file () =
  check_falls_back ~what:"missing file" ~expect:"cannot open"
    "/nonexistent/jumpstart.img"

let test_foreign_file () =
  with_temp (fun path ->
      write_file path "definitely not a jumpstart image, but long enough";
      check_falls_back ~what:"foreign file" ~expect:"bad magic" path)

let test_truncated_header () =
  with_temp (fun path ->
      write_file path "HHVM";
      check_falls_back ~what:"truncated header" ~expect:"truncated header"
        path)

(** Dump one real image and reuse it for the mutation tests. *)
let dumped_image : string Lazy.t =
  lazy
    (with_temp (fun path ->
         match Server.Startup.dump ~trigger_requests:trigger ~path () with
         | Ok _ -> read_file path
         | Error e -> Alcotest.failf "dump failed: %s" e))

let test_truncated_payload () =
  with_temp (fun path ->
      let img = Lazy.force dumped_image in
      write_file path (String.sub img 0 (String.length img - 7));
      check_falls_back ~what:"truncated payload" ~expect:"truncated payload"
        path)

let test_corrupted_payload () =
  with_temp (fun path ->
      let img = Bytes.of_string (Lazy.force dumped_image) in
      (* flip one byte in the middle of the payload *)
      let i = 48 + (Bytes.length img - 48) / 2 in
      Bytes.set img i (Char.chr (Char.code (Bytes.get img i) lxor 0xFF));
      write_file path (Bytes.to_string img);
      check_falls_back ~what:"corrupted payload" ~expect:"checksum mismatch"
        path)

let test_stale_version () =
  with_temp (fun path ->
      let img = Bytes.of_string (Lazy.force dumped_image) in
      (* bump the big-endian format version at offset 8 *)
      Bytes.set img 11 (Char.chr (Char.code (Bytes.get img 11) + 1));
      write_file path (Bytes.to_string img);
      check_falls_back ~what:"stale format version" ~expect:"format version"
        path)

let test_options_mismatch () =
  (* dump under different codegen options than the restore uses: each
     knob the fingerprint covers must change the digest *)
  List.iter
    (fun (what, tweak) ->
       with_temp (fun path ->
           let o = Core.Jit_options.default () in
           tweak o;
           (match Server.Startup.dump ~opts:o ~trigger_requests:trigger ~path ()
            with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "dump failed: %s" e);
           check_falls_back ~what ~expect:"digest mismatch" path))
    [ ("rce off", fun o -> o.Core.Jit_options.rce <- false);
      ("pgo_layout off", fun o -> o.Core.Jit_options.pgo_layout <- false);
      ("method_dispatch off",
       fun o -> o.Core.Jit_options.method_dispatch <- false) ]

let test_load_never_raises_on_junk () =
  (* a battery of malformed byte strings straight into the codec *)
  let u = Server.Startup.load_unit () in
  let digest = Core.Jumpstart.unit_digest u (Core.Jit_options.default ()) in
  List.iteri
    (fun i junk ->
       with_temp (fun path ->
           write_file path junk;
           match Core.Jumpstart.load ~path ~digest with
           | Ok _ -> Alcotest.failf "junk %d: load accepted garbage" i
           | Error _ -> ()))
    [ ""; "H"; "HHVMJUMP"; "HHVMJUMP\x00\x00\x00\x01";
      "HHVMJUMP\x00\x00\x00\x01" ^ String.make 16 'x';
      "HHVMJUMP\x00\x00\x00\x01" ^ Digest.to_hex digest ]

let suite =
  ( "jumpstart",
    [ Alcotest.test_case "round-trip parity {1x1, 4x4}" `Slow
        test_roundtrip_parity;
      Alcotest.test_case "1x1 image restores into 4x4 process" `Quick
        test_cross_worker_restore;
      Alcotest.test_case "evicted+compacted cache round-trips" `Quick
        test_compacted_cache_restore;
      Alcotest.test_case "missing file falls back cold" `Quick
        test_missing_file;
      Alcotest.test_case "foreign file falls back cold" `Quick
        test_foreign_file;
      Alcotest.test_case "truncated header falls back cold" `Quick
        test_truncated_header;
      Alcotest.test_case "truncated payload falls back cold" `Quick
        test_truncated_payload;
      Alcotest.test_case "corrupted payload falls back cold" `Quick
        test_corrupted_payload;
      Alcotest.test_case "stale format version falls back cold" `Quick
        test_stale_version;
      Alcotest.test_case "codegen-options mismatch falls back cold" `Quick
        test_options_mismatch;
      Alcotest.test_case "codec never raises on junk" `Quick
        test_load_never_raises_on_junk ] )
