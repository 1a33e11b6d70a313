(* Host clock, the interleaved calibration loop and the scaling rule.

   The host this benchmark runs on drifts: identical whole runs spread by
   ±15-30%, in slow windows that last from hundreds of ms to seconds. Every
   host-time figure is therefore measured over many short episodes, each
   followed by [calibrate], and scaled to [ref_cal_ms] by the calibration
   nearest to it: a slow window stretches the episode and its calibration
   alike, and the ratio cancels most of it.

   The calibration loop is fixed pure-OCaml code that calls nothing of the
   simulator, so a change to the simulator can never move it. It has two
   parts, because the simulator slows under two kinds of contention from
   the host's other tenants. The core part walks a 128 KB table that stays
   in the core's private caches and allocates a little (a short list
   recycled every 16K steps). The memory part makes random
   read-modify-writes over a 4 MB table and streams writes through a 2 MB
   buffer, as the simulator does with its slot pages. Neither part
   allocates more than that: a calibration that allocates heavily runs
   minor and major GC work on the simulator's heap, and then its time
   depends on the workload it is meant to be independent of. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let ms_between t0 t1 = float_of_int (t1 - t0) /. 1e6

let cal_words = 16384
let cal_steps = 170_000
let mem_words = 512 * 1024
let mem_steps = 60_000

let cal_table =
  let st = Random.State.make [| 0x9e3779b9 |] in
  Array.init cal_words (fun _ -> Random.State.int st cal_words)

(* Outside the OCaml heap, so that it does not move the GC's pacing. *)
let mem_table =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout mem_words in
  Bigarray.Array1.fill a 0;
  a

let mem_stream = Bytes.create (2 * 1024 * 1024)

(* Written after every loop so the work cannot be optimised away. *)
let cal_sink = ref 0

let calibrate () =
  let t0 = now_ns () in
  let idx = ref 0 and acc = ref 0 and keep = ref [] in
  for i = 1 to cal_steps do
    let j = Array.unsafe_get cal_table !idx in
    idx := (j + i) land (cal_words - 1);
    acc := (!acc * 31) + j;
    if i land 1023 = 0 then keep := (if i land 16383 = 0 then [] else (j, !acc) :: !keep)
  done;
  let pos = ref 1 and off = ref 0 in
  for i = 1 to mem_steps do
    pos := ((!pos * 1103515245) + 12345) land (mem_words - 1);
    Bigarray.Array1.unsafe_set mem_table !pos (Bigarray.Array1.unsafe_get mem_table !pos + i);
    if i land 31 = 0 then begin
      Bytes.unsafe_fill mem_stream !off 512 'x';
      off := (!off + 512) land (Bytes.length mem_stream - 1)
    end
  done;
  cal_sink := !acc + !pos + List.length !keep;
  ms_between t0 (now_ns ())

(* The calibration time every scaled figure is expressed against: the
   median [calibrate] of a quiet 2-core x86-64 container. Scaled values read
   as "what this episode would have taken on that reference host". *)
let ref_cal_ms = 1.5

(* A duration (or a per-operation latency) measured next to calibration
   [cal_ms], scaled to the reference calibration time. *)
let scale_time ~cal_ms raw = raw *. (ref_cal_ms /. cal_ms)

(* A rate (work per host second) measured next to calibration [cal_ms]. *)
let scale_rate ~cal_ms raw = raw *. (cal_ms /. ref_cal_ms)

