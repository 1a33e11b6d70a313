(* The four workloads. Each is a fixed, seeded scenario on an 8-node
   cluster, driven only through the library's public API: a set-up that
   builds the program, the cluster and the initial population; a fixed
   number of timed episodes; and a finish that drains the cluster and
   collects the virtual outputs the correctness gate compares. A scenario
   is deterministic in its seed, so a run repeats it until its time is up
   and every repetition must reproduce the same outputs. The seed moves
   only guest data and virtual-time parameters, never the amount of host
   work, so runs on different seeds measure the same host cost. *)

open Pm2_core
module Asm = Pm2_mvm.Asm
module Isa = Pm2_mvm.Isa
module Network = Pm2_net.Network

let nodes = 8

(* The benchmark's calls into the simulator. The traced run substitutes
   hooks that time each call and charge it to a layer. *)
type hooks = {
  created : Cluster.t -> unit; (* called once, right after [Cluster.create] *)
  spawn : Cluster.t -> node:int -> entry:string -> arg:int -> Thread.t;
  step : Cluster.t -> int -> int; (* run at most [n] events; how many ran *)
  request : Cluster.t -> Thread.t -> dest:int -> unit;
}

let plain_hooks =
  {
    created = ignore;
    spawn = (fun c ~node ~entry ~arg -> Cluster.spawn c ~node ~entry ~arg ());
    step = (fun c n -> Cluster.step_events c ~max_events:n);
    request = Cluster.request_migration;
  }

(* What one scenario produced in virtual time. The default seed pins all
   four; every repetition inside a run must reproduce them exactly. *)
type outputs = {
  makespan_us : float;
  wire_bytes : int;
  migrations : int;
  digest : string; (* MD5 of the guest output lines *)
}

type episode = {
  events : int;
  work : float; (* spawns, guest instructions or committed migrations *)
}

type finish = {
  attempted : int;
  failed : int;
  errors : string list;
  outputs : outputs;
}

type scenario = {
  cluster : Cluster.t;
  (* [episode ~op i] runs the [i]-th episode. Workloads whose operation is
     finer than an episode wrap each operation in [op]. *)
  episode : op:((unit -> unit) -> unit) -> int -> episode;
  finish : unit -> finish;
}

type t = {
  name : string;
  episodes : int; (* per scenario *)
  op_is_episode : bool; (* else [episode] times its own operations *)
  op_name : string;
  work_unit : string;
  setup : hooks -> seed:int -> scenario;
}

let drain (h : hooks) c =
  let rec go acc =
    let n = h.step c 4096 in
    if n = 0 then acc else go (acc + n)
  in
  go 0

let outputs c ~migrations =
  {
    makespan_us = Pm2_sim.Engine.now (Cluster.engine c);
    wire_bytes = Network.bytes_sent (Cluster.network c);
    migrations;
    digest =
      Digest.to_hex
        (Digest.string (String.concat "\n" (Pm2_sim.Trace.lines (Cluster.trace c))));
  }

let invariants c =
  match Cluster.check_invariants c with
  | () -> []
  | exception Failure msg -> [ "invariant: " ^ msg ]

(* Guest output lines whose text (after the "[nodeN] " prefix) starts with
   [prefix], as integers, in emission order. *)
let printed_ints c ~prefix =
  List.filter_map
    (fun line ->
      match String.index_opt line ' ' with
      | None -> None
      | Some i ->
        let text = String.sub line (i + 1) (String.length line - i - 1) in
        let pl = String.length prefix in
        if String.length text > pl && String.sub text 0 pl = prefix then
          int_of_string_opt (String.sub text pl (String.length text - pl))
        else None)
    (Pm2_sim.Trace.lines (Cluster.trace c))

(* ---- spawn_churn ---------------------------------------------------- *)

(* Resident threads park at a barrier that only the closer completes, so
   the population stays live through every round; workers run a short
   virtual-CPU burst on a dirtied stack page and exit. *)
let churn_residents = 2048
let churn_rounds = 16
let churn_batch = 384

let churn_program () =
  Pm2.build (fun b ->
      let closed = Asm.cstring b "closed %d" in
      Asm.proc b "resident" (fun b ->
          Asm.sys b Isa.Sys_barrier;
          Asm.halt b);
      Asm.proc b "closer" (fun b ->
          Asm.sys b Isa.Sys_barrier;
          Asm.imm b Asm.r1 closed;
          Asm.imm b Asm.r2 churn_residents;
          Asm.sys b Isa.Sys_print;
          Asm.halt b);
      Asm.proc b "worker" (fun b ->
          Asm.enter b 16;
          Asm.fp b Asm.r2;
          Asm.store b Asm.r1 Asm.r2 (-8);
          Asm.sys b Isa.Sys_workload;
          Asm.leave b;
          Asm.halt b))

let spawn_churn =
  {
    name = "spawn_churn";
    episodes = churn_rounds;
    op_is_episode = false;
    op_name = "spawn";
    work_unit = "spawns";
    setup =
      (fun h ~seed ->
        let program = churn_program () in
        let c = Cluster.create (Pm2.Config.make ~nodes ~seed ()) program in
        h.created c;
        let bar = Cluster.create_barrier c ~participants:(churn_residents + 1) in
        for i = 0 to churn_residents - 1 do
          ignore (h.spawn c ~node:(i mod nodes) ~entry:"resident" ~arg:bar)
        done;
        ignore (drain h c);
        let rng = Random.State.make [| seed; 1 |] in
        let amounts =
          Array.init (churn_rounds * churn_batch) (fun _ -> 20 + Random.State.int rng 60)
        in
        let failed = ref 0 in
        let episode ~op r =
          for j = 0 to churn_batch - 1 do
            op (fun () ->
                match
                  h.spawn c ~node:(j mod nodes) ~entry:"worker"
                    ~arg:amounts.((r * churn_batch) + j)
                with
                | _ -> ()
                | exception Failure _ -> incr failed)
          done;
          { events = drain h c; work = float_of_int churn_batch }
        in
        let finish () =
          let residents_alive = Cluster.live_threads c in
          ignore (h.spawn c ~node:0 ~entry:"closer" ~arg:bar);
          ignore (drain h c);
          let errors =
            invariants c
            @ (if residents_alive <> churn_residents then
                 [ Printf.sprintf "%d live threads after the rounds, expected %d"
                     residents_alive churn_residents ]
               else [])
            @ (if Cluster.live_threads c <> 0 then [ "threads left after the closer" ] else [])
            @
            if printed_ints c ~prefix:"closed " <> [ churn_residents ] then
              [ "closer output missing" ]
            else []
          in
          let lost = abs (residents_alive - churn_residents) in
          {
            attempted = churn_rounds * churn_batch;
            failed = !failed + lost;
            errors;
            outputs = outputs c ~migrations:0;
          }
        in
        { cluster = c; episode; finish });
  }

(* ---- compute -------------------------------------------------------- *)

(* One register-only LCG loop per node: 4 instructions per iteration, no
   syscall until the loop ends, then one print and one barrier. The loop
   counter lives in r4, where the host reads retired instructions. *)
let lcg_a = 2862933555777941757
let lcg_c = 3037000493
let instrs_per_iter = 4
let compute_iters = 1_600_000
let compute_slice = 4000 (* engine events per episode *)
let compute_slices = 60

let compute_program () =
  Pm2.build (fun b ->
      let fmt = Asm.cstring b "compute %d" in
      Asm.proc b "compute" (fun b ->
          Asm.imm b Asm.r2 16;
          Asm.mod_ b Asm.r9 Asm.r1 Asm.r2;
          Asm.div b Asm.r8 Asm.r1 Asm.r2;
          Asm.imm b Asm.r4 0;
          Asm.mov b Asm.r5 Asm.r8;
          Asm.imm b Asm.r6 lcg_a;
          Asm.imm b Asm.r7 lcg_c;
          Asm.label b "compute_loop";
          Asm.mul b Asm.r5 Asm.r5 Asm.r6;
          Asm.add b Asm.r5 Asm.r5 Asm.r7;
          Asm.addi b Asm.r4 Asm.r4 1;
          Asm.blt b Asm.r4 Asm.r8 "compute_loop";
          Asm.imm b Asm.r1 fmt;
          Asm.mov b Asm.r2 Asm.r5;
          Asm.sys b Isa.Sys_print;
          Asm.mov b Asm.r1 Asm.r9;
          Asm.sys b Isa.Sys_barrier;
          Asm.halt b))

let lcg_result iters =
  let acc = ref iters in
  for _ = 1 to iters do
    acc := (!acc * lcg_a) + lcg_c
  done;
  !acc

let compute =
  {
    name = "compute";
    episodes = compute_slices;
    op_is_episode = true;
    op_name = "event slice";
    work_unit = "guest instructions";
    setup =
      (fun h ~seed ->
        let program = compute_program () in
        let c = Cluster.create (Pm2.Config.make ~nodes ~seed ()) program in
        h.created c;
        let bar = Cluster.create_barrier c ~participants:nodes in
        let rng = Random.State.make [| seed; 2 |] in
        let iters = Array.init nodes (fun _ -> compute_iters + Random.State.int rng 5000) in
        let ths =
          Array.init nodes (fun i ->
              h.spawn c ~node:i ~entry:"compute" ~arg:((iters.(i) * 16) + bar))
        in
        let retired () =
          Array.fold_left
            (fun acc (th : Thread.t) -> acc + th.Thread.ctx.Pm2_mvm.Interp.regs.(4))
            0 ths
        in
        let episode ~op:_ _ =
          let before = retired () in
          let events = h.step c compute_slice in
          { events; work = float_of_int ((retired () - before) * instrs_per_iter) }
        in
        let finish () =
          ignore (drain h c);
          let expected = List.sort compare (Array.to_list (Array.map lcg_result iters)) in
          let got = List.sort compare (printed_ints c ~prefix:"compute ") in
          let errors =
            invariants c
            @ (if got <> expected then [ "guest results differ from the host model" ] else [])
            @ if Cluster.live_threads c <> 0 then [ "compute threads left" ] else []
          in
          {
            attempted = compute_slices;
            failed = (if errors = [] then 0 else 1);
            errors;
            outputs = outputs c ~migrations:0;
          }
        in
        { cluster = c; episode; finish });
  }

(* ---- hop_plain / hop_lossy_delta ------------------------------------ *)

(* Each hopper isomallocs a payload, fills every word, then loops: rewrite
   four words of one payload page, sleep. The host asks every hopper to
   hop to its paired node (n xor 1) once per round; the sleeping thread
   migrates at its next quantum. At the end each hopper prints the sum of
   its payload, which the host recomputes. *)
let hop_threads = 32
let hop_payload = 32 * 1024
let hop_pages = hop_payload / 4096
let hop_rounds = 160
let hop_loops = (8 * hop_rounds) + 64
let hop_delta_budget = 4 * 1024 * 1024
let hop_loss = 0.02

let hop_program () =
  Pm2.build (fun b ->
      let fmt = Asm.cstring b "sum %d" in
      Asm.proc b "hopper" (fun b ->
          (* r1 = sleep_us | loops << 12 | fill << 24 *)
          Asm.imm b Asm.r2 4096;
          Asm.mod_ b Asm.r10 Asm.r1 Asm.r2;
          Asm.div b Asm.r1 Asm.r1 Asm.r2;
          Asm.mod_ b Asm.r11 Asm.r1 Asm.r2;
          Asm.div b Asm.r12 Asm.r1 Asm.r2;
          Asm.imm b Asm.r1 hop_payload;
          Asm.sys b Isa.Sys_isomalloc;
          Asm.mov b Asm.r5 Asm.r0;
          Asm.imm b Asm.r6 0;
          Asm.imm b Asm.r7 hop_payload;
          Asm.label b "hop_fill";
          Asm.add b Asm.r8 Asm.r5 Asm.r6;
          Asm.add b Asm.r4 Asm.r12 Asm.r6;
          Asm.store b Asm.r4 Asm.r8 0;
          Asm.addi b Asm.r6 Asm.r6 8;
          Asm.blt b Asm.r6 Asm.r7 "hop_fill";
          Asm.imm b Asm.r6 0;
          Asm.imm b Asm.r9 1;
          Asm.label b "hop_loop";
          Asm.imm b Asm.r2 hop_pages;
          Asm.mod_ b Asm.r7 Asm.r6 Asm.r2;
          Asm.imm b Asm.r2 4096;
          Asm.mul b Asm.r7 Asm.r7 Asm.r2;
          Asm.add b Asm.r7 Asm.r7 Asm.r5;
          Asm.store b Asm.r6 Asm.r7 0;
          Asm.store b Asm.r6 Asm.r7 64;
          Asm.store b Asm.r6 Asm.r7 128;
          Asm.store b Asm.r6 Asm.r7 192;
          Asm.mov b Asm.r1 Asm.r10;
          Asm.sys b Isa.Sys_sleep;
          Asm.addi b Asm.r6 Asm.r6 1;
          Asm.blt b Asm.r6 Asm.r11 "hop_loop";
          Asm.imm b Asm.r6 0;
          Asm.imm b Asm.r8 0;
          Asm.imm b Asm.r7 hop_payload;
          Asm.label b "hop_sum";
          Asm.add b Asm.r2 Asm.r5 Asm.r6;
          Asm.load b Asm.r2 Asm.r2 0;
          Asm.add b Asm.r8 Asm.r8 Asm.r2;
          Asm.addi b Asm.r6 Asm.r6 8;
          Asm.blt b Asm.r6 Asm.r7 "hop_sum";
          Asm.imm b Asm.r1 fmt;
          Asm.mov b Asm.r2 Asm.r8;
          Asm.sys b Isa.Sys_print;
          Asm.halt b))

(* The payload sum a hopper must print, replaying its stores on the host. *)
let hop_expected_sum ~fill =
  let words = Array.init (hop_payload / 8) (fun w -> fill + (w * 8)) in
  for i = 0 to hop_loops - 1 do
    let base = i mod hop_pages * 4096 / 8 in
    List.iter (fun off -> words.(base + (off / 8)) <- i) [ 0; 64; 128; 192 ]
  done;
  Array.fold_left ( + ) 0 words

let hop ~name ~lossy =
  {
    name;
    episodes = hop_rounds;
    op_is_episode = true;
    op_name = "hop round";
    work_unit = "migrations";
    setup =
      (fun h ~seed ->
        let program = hop_program () in
        let config =
          if lossy then
            Pm2.Config.make ~nodes ~seed ~delta_cache_bytes:hop_delta_budget
              ~fault_plan:
                (Pm2_fault.Plan.create ~seed
                   { Pm2_fault.Plan.default_spec with Pm2_fault.Plan.loss = hop_loss })
              ()
          else Pm2.Config.make ~nodes ~seed ()
        in
        let c = Cluster.create config program in
        h.created c;
        let rng = Random.State.make [| seed; 3 |] in
        let fills = Array.init hop_threads (fun _ -> 1 + Random.State.int rng 0xfffff) in
        let ths =
          Array.init hop_threads (fun i ->
              let sleep = 400 + Random.State.int rng 200 in
              h.spawn c ~node:(i mod nodes) ~entry:"hopper"
                ~arg:(sleep lor (hop_loops lsl 12) lor (fills.(i) lsl 24)))
        in
        (* Set-up ends once every hopper has filled its payload. *)
        let ready (th : Thread.t) = th.Thread.ctx.Pm2_mvm.Interp.regs.(9) = 1 in
        let stuck = ref false in
        while (not !stuck) && not (Array.for_all ready ths) do
          if h.step c 1 = 0 then stuck := true
        done;
        let requested = ref 0 and missed = ref 0 in
        let episode ~op:_ _ =
          let targets = Array.map (fun (th : Thread.t) -> th.Thread.node lxor 1) ths in
          Array.iteri (fun i th -> h.request c th ~dest:targets.(i)) ths;
          requested := !requested + hop_threads;
          let events = ref 0 and i = ref 0 in
          while !i < hop_threads do
            let th = ths.(!i) in
            if th.Thread.pending_migration = None && th.Thread.state <> Thread.Migrating then begin
              if th.Thread.node <> targets.(!i) then incr missed;
              incr i
            end
            else if h.step c 1 = 1 then incr events
            else begin
              missed := !missed + (hop_threads - !i);
              i := hop_threads
            end
          done;
          { events = !events; work = float_of_int hop_threads }
        in
        let finish () =
          ignore (drain h c);
          let migrations = List.length (Cluster.migrations c) in
          let aborted = Cluster.aborted_migrations c + Cluster.aborted_groups c in
          let expected =
            List.sort compare (Array.to_list (Array.map (fun fill -> hop_expected_sum ~fill) fills))
          in
          let got = List.sort compare (printed_ints c ~prefix:"sum ") in
          let errors =
            invariants c
            @ (if !stuck then [ "hoppers never became ready" ] else [])
            @ (if got <> expected then [ "payload sums differ from the host model" ] else [])
            @ (if migrations <> !requested then
                 [ Printf.sprintf "%d migrations committed of %d requested" migrations !requested ]
               else [])
            @ if Cluster.live_threads c <> 0 then [ "hoppers left" ] else []
          in
          {
            attempted = !requested;
            failed = max aborted !missed + (if got <> expected then 1 else 0);
            errors;
            outputs = outputs c ~migrations;
          }
        in
        { cluster = c; episode; finish });
  }

let hop_plain =
  hop ~name:"hop_plain" ~lossy:false

let hop_lossy_delta =
  hop ~name:"hop_lossy_delta" ~lossy:true

let all = [ spawn_churn; compute; hop_plain; hop_lossy_delta ]

let find name = List.find_opt (fun w -> w.name = name) all
