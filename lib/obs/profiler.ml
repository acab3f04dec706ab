(** Cycle-attribution profiler with folded-stack (flamegraph) output.

    Production HHVM attributes CPU cycles to translations with Linux
    perf + tc-print; here the simulator already charges exact cycles, so
    the profiler's job is {e attribution}: for every request, split its
    charged cycles across the code that consumed them —

    - [<endpoint>;jit;<func>;tr<id>_<kind>@<srckey>] — execution of one
      translation (per-translation, per-request);
    - [<endpoint>;interp;<Opcode>] — interpreter fallback, per opcode;
    - [<endpoint>;jit-compile;<func>] — lazy compiles charged to the
      requesting domain (the lease winner's inline compile);
    - [<endpoint>;jit-instrument] — profiling-translation
      instrumentation overhead;
    - [<endpoint>;dispatch] — the residual: guard execution, builtin
      calls, and everything not explicitly attributed above.

    The residual frame is what makes the output {b exact}: at request
    end the profiler records [total - attributed] under [;dispatch], so
    the folded-stack file always sums to the total serving cycles —
    the invariant the serving report asserts.

    Recording is per-domain (domain-local state, merged at burst join),
    keyed by semicolon-joined frame strings, the folded-stack format
    every flamegraph tool consumes ([frame;frame;... count] per line). *)

(** The profiler knob; follows [Jit_options.spans] (set at install) and
    is forced on inside [Serving.measure]. *)
let enabled = ref false

let on () = !enabled

(* Interpreter opcode names, registered once by Vm.Interp at module init
   so per-opcode attribution can render without obs depending on hhbc. *)
let op_names : string array ref = ref [||]
let set_op_names (names : string array) : unit = op_names := names

type state = {
  tbl : (string, int ref) Hashtbl.t;    (* folded key -> cycles *)
  mutable root : string;                (* current request's root frame *)
  mutable attributed : int;             (* cycles attributed this request *)
  mutable ops : int array;              (* per-opcode interp cycles *)
  jit_suffix : (int, string) Hashtbl.t; (* tr id -> cached frame suffix *)
}

let key : state Domain.DLS.key =
  Domain.DLS.new_key
    (fun () ->
       { tbl = Hashtbl.create 64; root = ""; attributed = 0;
         ops = [||]; jit_suffix = Hashtbl.create 64 })

let local () : state = Domain.DLS.get key

let tbl_add (tbl : (string, int ref) Hashtbl.t) (k : string) (c : int) =
  match Hashtbl.find_opt tbl k with
  | Some r -> r := !r + c
  | None -> Hashtbl.replace tbl k (ref c)

(** Attribute [cycles] to [root;frames...] (cold paths: compiles,
    instrumentation).  Frames must not contain ';' or spaces. *)
let record ~(frames : string list) ~(cycles : int) : unit =
  if cycles <> 0 then begin
    let st = local () in
    tbl_add st.tbl (String.concat ";" (st.root :: frames)) cycles;
    st.attributed <- st.attributed + cycles
  end

(** Attribute one translation execution; [mk] builds the frame suffix on
    first sight of [id] (cached after — the hot exec path pays one int
    hash and one string concat). *)
let record_jit (st : state) ~(id : int) ~(mk : unit -> string)
    ~(cycles : int) : unit =
  if cycles <> 0 then begin
    let suffix =
      match Hashtbl.find_opt st.jit_suffix id with
      | Some s -> s
      | None ->
        let s = mk () in
        Hashtbl.replace st.jit_suffix id s;
        s
    in
    tbl_add st.tbl (st.root ^ ";" ^ suffix) cycles;
    st.attributed <- st.attributed + cycles
  end

(** Attribute [c] interpreter cycles to opcode [op] (hot dispatch loop:
    two adds and an array write through a pre-fetched [st]). *)
let op_charge (st : state) (op : int) (c : int) : unit =
  let n = Array.length st.ops in
  if op >= n then begin
    let bigger = Array.make (max (op + 1) (Array.length !op_names)) 0 in
    Array.blit st.ops 0 bigger 0 n;
    st.ops <- bigger
  end;
  st.ops.(op) <- st.ops.(op) + c;
  st.attributed <- st.attributed + c

let begin_request ~(root : string) : unit =
  let st = local () in
  st.root <- root;
  st.attributed <- 0;
  let n = Array.length !op_names in
  if Array.length st.ops < n then st.ops <- Array.make n 0
  else Array.fill st.ops 0 (Array.length st.ops) 0

(** Close the request: flush per-opcode interp cycles under
    [root;interp;<op>], then record the residual [total - attributed]
    under [root;dispatch] so per-request attribution sums exactly. *)
let end_request ~(total : int) : unit =
  let st = local () in
  let names = !op_names in
  Array.iteri
    (fun i c ->
       if c <> 0 then begin
         let name = if i < Array.length names then names.(i) else string_of_int i in
         tbl_add st.tbl (st.root ^ ";interp;" ^ name) c;
         st.ops.(i) <- 0
       end)
    st.ops;
  let residual = total - st.attributed in
  if residual <> 0 then tbl_add st.tbl (st.root ^ ";dispatch") residual;
  st.root <- "";
  st.attributed <- 0

(** Drain this domain's attribution table (burst join). *)
let take () : (string * int) list =
  let st = local () in
  let l = Hashtbl.fold (fun k r acc -> (k, !r) :: acc) st.tbl [] in
  Hashtbl.reset st.tbl;
  l

(* ------------------------------------------------------------------ *)
(* Main-domain accumulation (the merged burst profile)                 *)
(* ------------------------------------------------------------------ *)

let acc : (string, int ref) Hashtbl.t = Hashtbl.create 256

(** Fold one domain's take into the merged profile (main domain only). *)
let absorb (l : (string * int) list) : unit =
  List.iter (fun (k, c) -> tbl_add acc k c) l

(** The merged profile as sorted (key, cycles) pairs — sorted so the
    folded output is byte-stable for any domain join order. *)
let folded_entries () : (string * int) list =
  Hashtbl.fold (fun k r l -> (k, !r) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let folded_total () : int =
  Hashtbl.fold (fun _ r t -> t + !r) acc 0

(** The merged profile in folded-stack format (one [frames count] line
    per entry), ready for [flamegraph.pl] / speedscope / inferno. *)
let folded () : string =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (k, c) -> Buffer.add_string buf (Printf.sprintf "%s %d\n" k c))
    (folded_entries ());
  Buffer.contents buf

(** Clear the merged profile and this domain's recording state. *)
let reset () : unit =
  Hashtbl.reset acc;
  let st = local () in
  Hashtbl.reset st.tbl;
  Hashtbl.reset st.jit_suffix;
  st.root <- "";
  st.attributed <- 0;
  Array.fill st.ops 0 (Array.length st.ops) 0
