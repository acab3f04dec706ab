(** Work queue for the parallel retranslate-all compile phase (§5.1).

    [run ~workers tasks] executes every task exactly once.  With
    [workers = 1] the calling domain runs a serial loop through the same
    machinery — the historical synchronous behavior, where the whole
    compile burst stalls the caller.  With [workers >= 2] the burst is
    offloaded: [min workers n] background domains claim and run every
    task while the calling (main) domain only waits for the join, mirroring
    HHVM's pool of background JIT worker threads — in a server the main
    thread keeps serving requests during this window, so only the serial
    publish that follows is a stall.  Tasks are claimed from a single
    atomic cursor, so scheduling is work-stealing-free and
    allocation-free; the task bodies must be read-only with respect to
    shared engine state — they compile into private buffers, and the
    caller publishes results serially afterwards.

    Two pieces of observability state are virtualized per worker so task
    bodies can use the normal probes:

    - Vmstats: each domain gets a private shard (installed in
      domain-local storage); shards are merged into the global registry
      after the join, so counter totals are exact for any schedule.
    - Trace: each *task* gets a private event buffer; the buffers are
      flushed in task order after the join, when sequence numbers are
      assigned — trace output is therefore identical for any worker count
      and any schedule.

    Results are returned in task order.  A task that raises aborts nothing
    else: the exception is captured, the remaining tasks still run, and
    the first (lowest-index) exception is re-raised after the join once
    shards and trace buffers are merged. *)

let run ~(workers : int) (tasks : (unit -> 'r) array) : 'r array =
  let n = Array.length tasks in
  if n = 0 then [||]
  else begin
    let results : ('r, exn) result option array = Array.make n None in
    let tracebufs = Array.make n Obs.Trace.empty_buffer in
    let next = Atomic.make 0 in
    (* distinct array slots per task: no two domains touch the same cell *)
    let worker_loop () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue := false
        else begin
          Obs.Trace.buffer_begin ();
          let r = try Ok (tasks.(i) ()) with e -> Error e in
          tracebufs.(i) <- Obs.Trace.buffer_take ();
          results.(i) <- Some r
        end
      done
    in
    let run_domain () =
      (* the calling domain may already carry a shard (a serving worker
         that fired the retranslate trigger): save and restore it, so the
         outer burst's routing survives this inner one *)
      let saved = Obs.Vmstats.shard_current () in
      let shard = Obs.Vmstats.shard_create () in
      Obs.Vmstats.shard_install (Some shard);
      Fun.protect
        ~finally:(fun () -> Obs.Vmstats.shard_install saved)
        worker_loop;
      shard
    in
    Obs.Vmstats.shards_begin ();
    Obs.Trace.buffering_begin ();
    let shards =
      if workers <= 1 then [| run_domain () |]
      else begin
        let w = min workers n in
        let spawned = Array.init w (fun _ -> Domain.spawn run_domain) in
        Array.map Domain.join spawned
      end
    in
    Obs.Vmstats.shards_end ();
    Obs.Trace.buffering_end ();
    Array.iter Obs.Vmstats.shard_merge shards;
    Array.iter Obs.Trace.flush_buffered tracebufs;
    Array.map
      (function
        | Some (Ok r) -> r
        | Some (Error e) -> raise e
        | None -> assert false)
      results
  end
