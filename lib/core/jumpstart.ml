(** Jumpstart (paper §6.2): versioned binary serialization of the warmup
    state — profile counters + TransCFG, and the deterministic optimized
    TC image — written after a warmup run and loaded by a fresh process to
    skip straight to optimized code.

    The repo already pays for the property that makes this sound: the
    publish phase of retranslate-all is serial and deterministic, so the
    optimized code-cache image (srckey tables, section offsets, link
    state, inline-cache ids) is a pure function of the profile it was
    built from.  A jumpstart image therefore records the {e publish
    sequence} — every placed [Translation.prepared] in publish order —
    and a fresh engine replays it through the same [finish_translation]
    path, reproducing the Main/Cold section layout byte for byte without
    re-running region formation or the HHIR pipeline.

    {b File format} (all integers big-endian via [output_binary_int]):

    {v
      offset  size  field
      0       8     magic "HHVMJUMP"
      8       4     format version
      12      16    unit digest   (MD5 of unit disasm + options fingerprint)
      28      16    payload digest (MD5 of the marshaled payload)
      44      4     payload length in bytes
      48      n     payload: one Marshal.to_string of [image]
    v}

    The payload is marshaled as ONE value so structure shared between
    components — region blocks referenced both from the TransCFG registry
    and from translation entry guards — keeps its shared identity on
    read-back.

    {b Degradation guarantee}: [load] never raises on a bad file.  Every
    failure mode (missing, foreign, stale version, different unit or
    codegen options, truncation, corruption) returns [Error reason]; the
    caller logs it and cold-starts. *)

type image = {
  im_prof : Vm.Prof.export;            (** canonical profile counters *)
  im_tcfg : Region.Transcfg.export;    (** profiling-block registry + arcs *)
  im_next_block_id : int;              (** region-block id allocator mark *)
  im_trans : (Translation.prepared * int) array;
  (** the optimized publish sequence: every placed prepared translation
      (with its region block count, for trace replay) in publish order *)
  im_links : (int * int * int * int) array;
  (** smashed bind jumps at capture: (source publish index, exit id,
      target publish index, target entry index) *)
  im_opt_bytes : int;                  (** sanity: optimized code bytes *)
}

let magic = "HHVMJUMP"
(* 2: the profile export's record carries the (empty) arc-table fields *)
let format_version = 2

(** The codegen-relevant option fingerprint folded into the unit digest:
    two processes produce the same optimized image iff these agree.
    Execution-time knobs (worker counts, huge pages, dispatch caches,
    stats/trace/spans, lazy translation, dispatch loop) are deliberately
    excluded — an image dumped by a 1x1 process restores into a 4x4 one. *)
let options_fingerprint (o : Jit_options.t) : string =
  Printf.sprintf "m%d|i%b|r%b|g%b|d%b|c%b|p%b|b%s|ch%d|nr%d|ri%d|ii%d"
    (match o.Jit_options.mode with
     | Jit_options.Interp -> 0 | Jit_options.Tracelet -> 1
     | Jit_options.ProfileOnly -> 2 | Jit_options.Region -> 3)
    o.Jit_options.inlining o.Jit_options.rce o.Jit_options.guard_relax
    o.Jit_options.method_dispatch o.Jit_options.inline_cache
    o.Jit_options.pgo_layout
    (match o.Jit_options.code_budget with
     | None -> "-" | Some b -> string_of_int b)
    o.Jit_options.max_live_per_srckey o.Jit_options.nregs
    o.Jit_options.max_region_instrs o.Jit_options.max_inline_instrs

(** Digest identifying (unit, codegen options): a stale image saved from
    different source code or different compiler knobs is rejected at
    load.  The disasm is canonical for the post-hhbbc bytecode the JIT
    actually compiles. *)
let unit_digest (u : Hhbc.Hunit.t) (o : Jit_options.t) : Digest.t =
  Digest.string (Hhbc.Disasm.unit_to_string u ^ "\x00" ^ options_fingerprint o)

let save ~(path : string) ~(digest : Digest.t) (im : image) : int =
  let payload = Marshal.to_string im [] in
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc)
    (fun () ->
       output_string oc magic;
       output_binary_int oc format_version;
       output_string oc digest;
       output_string oc (Digest.string payload);
       output_binary_int oc (String.length payload);
       output_string oc payload);
  48 + String.length payload

(** Load and validate an image.  Every check failure becomes a distinct
    human-readable [Error]; nothing in here raises on malformed input. *)
let load ~(path : string) ~(digest : Digest.t) : (image, string) result =
  match open_in_bin path with
  | exception Sys_error msg -> Error (Printf.sprintf "cannot open: %s" msg)
  | ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
         let read_exact n =
           match really_input_string ic n with
           | s -> Some s
           | exception End_of_file -> None
         in
         let read_int () =
           match input_binary_int ic with
           | n -> Some n
           | exception End_of_file -> None
         in
         match read_exact (String.length magic) with
         | None -> Error "truncated header (not a jumpstart file)"
         | Some m when m <> magic ->
           Error "bad magic (not a jumpstart file)"
         | Some _ ->
           match read_int () with
           | None -> Error "truncated header (no version)"
           | Some v when v <> format_version ->
             Error
               (Printf.sprintf "format version %d, this build reads %d"
                  v format_version)
           | Some _ ->
             match read_exact 16, read_exact 16, read_int () with
             | None, _, _ | _, None, _ | _, _, None ->
               Error "truncated header (digests/length)"
             | Some udig, _, _ when udig <> digest ->
               Error "unit/options digest mismatch (stale image for \
                      different code or codegen options)"
             | Some _, Some pdig, Some len ->
               if len < 0 then Error "corrupt header (negative length)"
               else
                 match read_exact len with
                 | None -> Error "truncated payload"
                 | Some payload ->
                   if Digest.string payload <> pdig then
                     Error "payload checksum mismatch (corrupted image)"
                   else
                     match (Marshal.from_string payload 0 : image) with
                     | im -> Ok im
                     | exception (Failure _ | Invalid_argument _) ->
                       Error "unmarshal failed (corrupted image)")
