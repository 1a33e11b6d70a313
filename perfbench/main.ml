(* perfbench: the repository's host-cost benchmark (see README.md).

     perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]

   With --trace 0 it repeats the workload's scenario for S seconds and
   prints the end-to-end metrics; with --trace 1 it runs one untraced
   reference scenario, then traced scenarios that step one event at a time
   and split host time by layer, then the standalone probes, and prints
   the per-layer metrics. Both modes check correctness. Diagnostics go to
   lines starting with '#'; the last line is the JSON result. The exit
   code is 0 only when every check passed. *)

open Pm2_core
open Perfbench
module W = Workloads
module As = Pm2_vmem.Address_space
module Network = Pm2_net.Network
module Reliable = Pm2_net.Reliable
module Collector = Pm2_obs.Collector

let default_seed = 42

(* No run may start a scenario after this much wall time, so that even a
   slow host ends within the 180 s a run is allowed. *)
let hard_cap_s = 120.

(* Scenarios per run at least: set-up time is their median. *)
let min_scenarios = 3

type args = {
  workload : W.t;
  seed : int;
  seconds : float;
  trace : bool;
}

let usage () =
  prerr_endline
    ("usage: perfbench --workload ("
    ^ String.concat "|" (List.map (fun (w : W.t) -> w.W.name) W.all)
    ^ ") [--seed N] [--seconds S] [--trace 0|1]");
  exit 2

let parse () =
  let workload = ref None and seed = ref default_seed and seconds = ref 10. and trace = ref false in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: tl ->
      (match W.find v with Some w -> workload := Some w | None -> usage ());
      go tl
    | "--seed" :: v :: tl ->
      (match int_of_string_opt v with Some s -> seed := s | None -> usage ());
      go tl
    | "--seconds" :: v :: tl ->
      (match float_of_string_opt v with Some s when s > 0. -> seconds := s | _ -> usage ());
      go tl
    | "--trace" :: v :: tl ->
      (match v with "0" -> trace := false | "1" -> trace := true | _ -> usage ());
      go tl
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match !workload with
  | None -> usage ()
  | Some workload -> { workload; seed = !seed; seconds = !seconds; trace = !trace }

(* ---- host facts ----------------------------------------------------- *)

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> nan
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.)
        | Some _ -> find ()
      in
      find ())

let live_heap_bytes () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words * (Sys.word_size / 8)

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let fingerprint ~cal_median =
  Printf.printf "# host nproc=%d ocaml=%s cal_ms.median=%.4f ref_cal_ms=%.4f\n"
    (Domain.recommended_domain_count ()) Sys.ocaml_version cal_median Calib.ref_cal_ms

(* ---- correctness ---------------------------------------------------- *)

let show_outputs (o : W.outputs) =
  Printf.sprintf "makespan_us=%.17g wire_bytes=%d migrations=%d digest=%s" o.W.makespan_us
    o.W.wire_bytes o.W.migrations o.W.digest

(* The default seed's outputs must match the pins; every later scenario of
   a run must reproduce the first one's exactly. *)
let check_outputs (w : W.t) ~seed ~first (o : W.outputs) =
  match first with
  | Some f when f <> o -> [ "scenario outputs differ between repetitions: " ^ show_outputs o ]
  | Some _ -> []
  | None when seed <> default_seed -> []
  | None ->
    (match Pins.find w.W.name with
     | None -> [ "no pinned outputs for " ^ w.W.name ]
     | Some p when p = o -> []
     | Some p ->
       [ "outputs differ from the pins: got " ^ show_outputs o ^ ", pinned " ^ show_outputs p ])

type gate = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable first : W.outputs option;
}

let gate () = { attempted = 0; failed = 0; errors = []; first = None }

let record_finish g (w : W.t) ~seed (fin : W.finish) =
  let errors = fin.W.errors @ check_outputs w ~seed ~first:g.first fin.W.outputs in
  g.attempted <- g.attempted + fin.W.attempted;
  g.failed <- g.failed + fin.W.failed + (if errors <> [] && fin.W.failed = 0 then 1 else 0);
  g.errors <- g.errors @ errors;
  if g.first = None then g.first <- Some fin.W.outputs

(* ---- result --------------------------------------------------------- *)

let finish_run g metrics =
  let correct = g.failed = 0 && g.errors = [] && g.attempted > 0 in
  let correct = correct && List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  List.iter (fun e -> Printf.printf "# ERROR %s\n" e) g.errors;
  let metric (name, v, unit) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
      (if Float.is_finite v then Printf.sprintf "%.17g" v else "0")
      unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 g.attempted) g.failed
    (String.concat ", " (List.map metric metrics));
  exit (if correct then 0 else 1)

(* ---- end-to-end run (--trace 0) ------------------------------------- *)

let run_e2e (w : W.t) ~seed ~seconds =
  let start = Calib.now_ns () in
  let elapsed () = float_of_int (Calib.now_ns () - start) /. 1e9 in
  let need_ops = Stats.samples_needed 0.95 in
  let cal = Stats.buf () in
  let setup_raw = Stats.buf () and setup_scaled = Stats.buf () in
  let events_raw = Stats.buf () and events_scaled = Stats.buf () in
  let work_raw = Stats.buf () and work_scaled = Stats.buf () in
  let ops_raw = Stats.buf () and ops_scaled = Stats.buf () in
  let g = gate () in
  let heap_per_thread = ref nan and ops_per_scenario = ref 0 in
  let op f =
    let t0 = Calib.now_ns () in
    f ();
    Stats.push ops_raw (float_of_int (Calib.now_ns () - t0) /. 1e3)
  in
  let scenarios = ref 0 in
  while
    (!scenarios < min_scenarios || Stats.length ops_raw < need_ops || elapsed () < seconds)
    && elapsed () < hard_cap_s
  do
    let base = if !scenarios = 0 then live_heap_bytes () else (Gc.full_major (); 0) in
    let t0 = Calib.now_ns () in
    let sc = w.W.setup W.plain_hooks ~seed in
    let t1 = Calib.now_ns () in
    if !scenarios = 0 then
      heap_per_thread :=
        float_of_int (live_heap_bytes () - base)
        /. float_of_int (Cluster.live_threads sc.W.cluster);
    let cal_ms = Calib.calibrate () in
    Stats.push cal cal_ms;
    let setup_s = float_of_int (t1 - t0) /. 1e9 in
    Stats.push setup_raw setup_s;
    Stats.push setup_scaled (Calib.scale_time ~cal_ms setup_s);
    let ops_before = Stats.length ops_raw in
    for i = 0 to w.W.episodes - 1 do
      let k0 = Stats.length ops_raw in
      let a = Calib.now_ns () in
      let ep = sc.W.episode ~op i in
      let b = Calib.now_ns () in
      let cal_ms = Calib.calibrate () in
      Stats.push cal cal_ms;
      let secs = float_of_int (b - a) /. 1e9 in
      if w.W.op_is_episode then Stats.push ops_raw (secs *. 1e6);
      for k = k0 to Stats.length ops_raw - 1 do
        Stats.push ops_scaled (Calib.scale_time ~cal_ms (Stats.get ops_raw k))
      done;
      let ev = float_of_int ep.W.events /. secs and wk = ep.W.work /. secs in
      Stats.push events_raw ev;
      Stats.push events_scaled (Calib.scale_rate ~cal_ms ev);
      Stats.push work_raw wk;
      Stats.push work_scaled (Calib.scale_rate ~cal_ms wk)
    done;
    if !scenarios = 0 then ops_per_scenario := Stats.length ops_raw - ops_before;
    record_finish g w ~seed (sc.W.finish ());
    incr scenarios
  done;
  let med b = Stats.median_mid (Stats.to_array b) in
  let ops = Stats.sorted_copy (Stats.to_array ops_scaled) in
  let ops_raw_sorted = Stats.sorted_copy (Stats.to_array ops_raw) in
  let n_ops = Array.length ops in
  if not (Stats.reportable ~n:n_ops 0.95) then
    g.errors <- g.errors @ [ Printf.sprintf "only %d operations: too few for a p95" n_ops ];
  let first = Option.get g.first in
  let cal_median = med cal in
  fingerprint ~cal_median;
  Printf.printf "# workload %s seed=%d scenarios=%d episodes=%d ops=%d (%s) elapsed_s=%.1f\n"
    w.W.name seed !scenarios (Stats.length events_raw) n_ops w.W.op_name (elapsed ());
  Printf.printf "# outputs %s\n" (show_outputs first);
  let p q a = if Array.length a = 0 then nan else Stats.percentile a q in
  let diag name scaled raw =
    Printf.printf "# %-16s scaled=%.6g raw=%.6g cal_ms=%.4f\n" name scaled raw cal_median
  in
  let setup_s = med setup_scaled and events = med events_scaled and work = med work_scaled in
  let p50 = p 0.5 ops and p95 = p 0.95 ops in
  diag "setup_s" setup_s (med setup_raw);
  diag "events_per_s" events (med events_raw);
  diag "work_per_s" work (med work_raw);
  Printf.printf "#   (work unit: %s)\n" w.W.work_unit;
  diag "op_us.p50" p50 (p 0.5 ops_raw_sorted);
  diag "op_us.p95" p95 (p 0.95 ops_raw_sorted);
  finish_run g
    [
      ("setup_s", setup_s, "s");
      ("events_per_s", events, "1/s");
      ("work_per_s", work, "1/s");
      ("op_us.p50", p50, "us");
      ("op_us.p95", p95, "us");
      ("peak_rss_mb", peak_rss_mb (), "MB");
      ("heap_bytes_per_thread", !heap_per_thread, "B");
      ("virt_makespan_us", first.W.makespan_us, "us");
      ( "wire_bytes_per_op",
        float_of_int first.W.wire_bytes /. float_of_int (max 1 !ops_per_scenario),
        "B" );
    ]

(* ---- traced run (--trace 1) ----------------------------------------- *)

let run_traced (w : W.t) ~seed ~seconds =
  let start = Calib.now_ns () in
  let elapsed () = float_of_int (Calib.now_ns () - start) /. 1e9 in
  let g = gate () in
  (* Untraced reference scenarios, alternated with the traced ones so that
     both sample the same host conditions: host events/s and allocation
     per event. *)
  let ref_ns = ref 0 and ref_events = ref 0 and ref_words = ref 0. in
  let untraced () =
    Gc.full_major ();
    let sc = w.W.setup W.plain_hooks ~seed in
    for i = 0 to w.W.episodes - 1 do
      let w0 = allocated_words () in
      let a = Calib.now_ns () in
      let ep = sc.W.episode ~op:(fun f -> f ()) i in
      let b = Calib.now_ns () in
      ref_words := !ref_words +. (allocated_words () -. w0);
      ref_ns := !ref_ns + (b - a);
      ref_events := !ref_events + ep.W.events
    done;
    record_finish g w ~seed (sc.W.finish ())
  in
  (* Traced scenarios. *)
  let layer_ns = Array.make (List.length Classify.all) 0 in
  let active = ref false and current = ref Classify.Sched in
  let reserves = ref 0 and hits = ref 0 and dhit = ref 0 and dmiss = ref 0 in
  let charge layer dt =
    if !active then layer_ns.(Classify.index layer) <- layer_ns.(Classify.index layer) + dt
  in
  let sink =
    Pm2_obs.Sink.make ~name:"perfbench.layers" (fun ~time:_ ~node:_ ev ->
        current := Classify.max_priority !current (Classify.of_event ev);
        match ev with
        | Pm2_obs.Event.Slot_reserve { cache_hit; _ } ->
          incr reserves;
          if cache_hit then incr hits
        | Delta_hit { pages; _ } -> dhit := !dhit + pages
        | Delta_miss { pages; _ } -> dmiss := !dmiss + pages
        | _ -> ())
  in
  let hooks =
    {
      W.created =
        (fun c ->
          reserves := 0;
          hits := 0;
          dhit := 0;
          dmiss := 0;
          Collector.attach (Cluster.obs c) sink);
      spawn =
        (fun c ~node ~entry ~arg ->
          let t0 = Calib.now_ns () in
          let th = Cluster.spawn c ~node ~entry ~arg () in
          charge Classify.Spawn (Calib.now_ns () - t0);
          th);
      step =
        (fun c n ->
          let ran = ref 0 and go = ref true in
          while !go && !ran < n do
            current := Classify.Sched;
            let t0 = Calib.now_ns () in
            let k = Cluster.step_events c ~max_events:1 in
            let t1 = Calib.now_ns () in
            if k = 0 then go := false
            else begin
              incr ran;
              charge !current (t1 - t0)
            end
          done;
          !ran);
      request =
        (fun c th ~dest ->
          let t0 = Calib.now_ns () in
          Cluster.request_migration c th ~dest;
          charge Classify.Migration (Calib.now_ns () - t0));
    }
  in
  let wall_ns = ref 0 and traced_events = ref 0 and traced = ref 0 in
  let counts = ref [] in
  while (!traced = 0 || elapsed () < seconds) && elapsed () < hard_cap_s do
    untraced ();
    Gc.full_major ();
    let sc = w.W.setup hooks ~seed in
    let c = sc.W.cluster in
    let events = ref 0 in
    for i = 0 to w.W.episodes - 1 do
      active := true;
      let a = Calib.now_ns () in
      let ep = sc.W.episode ~op:(fun f -> f ()) i in
      let b = Calib.now_ns () in
      active := false;
      wall_ns := !wall_ns + (b - a);
      events := !events + ep.W.events
    done;
    traced_events := !traced_events + !events;
    let spaces = List.init W.nodes (Cluster.node_space c) in
    let sum f = float_of_int (List.fold_left (fun acc s -> acc + f s) 0 spaces) in
    let mapped = sum As.mapped_pages and mmaps = sum As.mmap_calls in
    record_finish g w ~seed (sc.W.finish ());
    let groups = Cluster.group_migrations c in
    let gsum f = float_of_int (List.fold_left (fun acc r -> acc + f r) 0 groups) in
    let net = Cluster.network c in
    let msgs = Network.messages_sent net and retx = Reliable.retransmits (Cluster.reliable c) in
    let ratio ?(none = 0.) a b = if b = 0 then none else float_of_int a /. float_of_int b in
    counts :=
      [
        ("sim.events", float_of_int !events, "count");
        ("vmem.mapped_pages", mapped, "count");
        ("vmem.mmap_calls", mmaps, "count");
        ("slots.reserves", float_of_int !reserves, "count");
        ("slots.cache_hit_ratio", ratio !hits !reserves, "ratio");
        ("neg.count", float_of_int (Negotiation.count (Cluster.negotiation c)), "count");
        ("iso.calls", float_of_int (Cluster.isomalloc_calls c), "count");
        ("migr.count", float_of_int (List.length (Cluster.migrations c)), "count");
        ("migr.pages_data", gsum (fun r -> r.Cluster.g_data_pages), "count");
        ("migr.pages_zero", gsum (fun r -> r.Cluster.g_zero_pages), "count");
        ("migr.pages_cached", gsum (fun r -> r.Cluster.g_cached_pages), "count");
        ("delta.hit_ratio", ratio !dhit (!dhit + !dmiss), "ratio");
        ("delta.fallbacks", float_of_int (Cluster.delta_fallbacks c), "count");
        ("net.msgs", float_of_int msgs, "count");
        ("net.bytes", float_of_int (Network.bytes_sent net), "B");
        ("net.retransmits", float_of_int retx, "count");
        ("net.useful_ratio", ratio ~none:1. (msgs - retx) msgs, "ratio");
        ("obs.emitted", float_of_int (Collector.emitted (Cluster.obs c)), "count");
        ( "gc.alloc_bytes_per_event",
          !ref_words *. float_of_int (Sys.word_size / 8) /. float_of_int (max 1 !ref_events),
          "B" );
      ];
    incr traced
  done;
  let wall = float_of_int !wall_ns in
  let attributed = float_of_int (Array.fold_left ( + ) 0 layer_ns) in
  let split = attributed /. wall in
  if Float.abs (split -. 1.) > 0.10 then
    g.errors <-
      g.errors
      @ [ Printf.sprintf "layer split covers %.1f%% of the traced wall time" (100. *. split) ];
  let untraced_eps = float_of_int !ref_events /. (float_of_int !ref_ns /. 1e9) in
  let traced_eps = float_of_int !traced_events /. (wall /. 1e9) in
  let overhead = (untraced_eps -. traced_eps) /. untraced_eps in
  let layers =
    List.concat_map
      (fun l ->
        let ns = float_of_int layer_ns.(Classify.index l) in
        [
          ("host." ^ Classify.name l ^ ".ms", ns /. 1e6 /. float_of_int !traced, "ms");
          ("host." ^ Classify.name l ^ ".share", ns /. wall, "ratio");
        ])
      Classify.all
  in
  let probes =
    [
      ("mvm.ns_per_instr", Probes.mvm_ns_per_instr (), "ns");
      ("vmem.us_per_slot_map", Probes.vmem_us_per_slot_map (), "us");
      ("codec.ns_per_page", Probes.codec_ns_per_page (), "ns");
    ]
  in
  fingerprint ~cal_median:(Stats.median_mid (Array.init 9 (fun _ -> Calib.calibrate ())));
  Printf.printf "# workload %s seed=%d traced_scenarios=%d elapsed_s=%.1f\n" w.W.name seed !traced
    (elapsed ());
  Printf.printf "# outputs %s\n" (show_outputs (Option.get g.first));
  Printf.printf "# events_per_s untraced=%.6g traced=%.6g (trace_overhead %.3f)\n" untraced_eps
    traced_eps overhead;
  Printf.printf "# layer split covers %.2f%% of traced wall time %.1f ms\n" (100. *. split)
    (wall /. 1e6);
  List.iter
    (fun l ->
      let ns = float_of_int layer_ns.(Classify.index l) in
      Printf.printf "#   %-12s %6.2f%%\n" (Classify.name l) (100. *. ns /. wall))
    Classify.all;
  finish_run g
    (layers
    @ [ ("host.attributed_share", split, "ratio"); ("trace_overhead", overhead, "ratio") ]
    @ !counts @ probes)

let () =
  let a = parse () in
  if a.trace then run_traced a.workload ~seed:a.seed ~seconds:a.seconds
  else run_e2e a.workload ~seed:a.seed ~seconds:a.seconds
