(* Standalone probes: each times one public function of one layer in a
   tight loop, away from the scheduler, and reports the median of several
   batches. They locate a change that the traced split can only attribute
   to a whole step. *)

open Perfbench
module As = Pm2_vmem.Address_space
module Codec = Pm2_net.Codec
module Packet = Pm2_net.Packet
module Engine = Pm2_mvm.Engine
module Interp = Pm2_mvm.Interp
module Program = Pm2_mvm.Program

let batches = 15

let median_of_batches f =
  Stats.median_mid (Array.init batches (fun _ -> f ()))

(* Host ns per guest instruction of the blocks engine on the compute loop. *)
let mvm_ns_per_instr () =
  let program = Workloads.compute_program () in
  let engine = Engine.create Engine.Blocks program in
  let space = As.create ~node:0 () in
  Program.load_data program space;
  let ctx = Interp.make_context ~entry:(Program.entry program "compute") ~stack_top:0 in
  (* More iterations than the probe can retire: the loop never ends. *)
  ctx.Interp.regs.(1) <- ((1 lsl 40) * 16) + 1;
  median_of_batches (fun () ->
      let t0 = Calib.now_ns () in
      let _, steps = Engine.run engine ctx space ~fuel:1_000_000 in
      float_of_int (Calib.now_ns () - t0) /. float_of_int (max 1 steps))

let slot_size = 64 * 1024
let slot_addr = 0x4000_0000

(* Host µs to map and unmap one 64 KB slot. *)
let vmem_us_per_slot_map () =
  let space = As.create ~node:0 () in
  let n = 200 in
  median_of_batches (fun () ->
      let t0 = Calib.now_ns () in
      for _ = 1 to n do
        As.mmap space ~addr:slot_addr ~size:slot_size;
        As.munmap space ~addr:slot_addr ~size:slot_size
      done;
      float_of_int (Calib.now_ns () - t0) /. 1e3 /. float_of_int n)

(* Host ns per page to encode and decode one hop slot image: a 64 KB slot
   whose first half carries payload data and whose second half is zero. *)
let codec_ns_per_page () =
  let page = Pm2_vmem.Layout.page_size in
  let pages = slot_size / page in
  let src = As.create ~node:0 () in
  As.mmap src ~addr:slot_addr ~size:slot_size;
  for w = 0 to (Workloads.hop_payload / 8) - 1 do
    As.store_word src (slot_addr + (w * 8)) (0x5eed + w)
  done;
  let dst = As.create ~node:1 () in
  let n = 50 in
  median_of_batches (fun () ->
      let spent = ref 0 in
      for _ = 1 to n do
        As.mmap dst ~addr:slot_addr ~size:slot_size;
        let t0 = Calib.now_ns () in
        let p = Packet.packer () in
        ignore (Codec.encode_range p src ~addr:slot_addr ~size:slot_size);
        let u = Packet.unpacker (Packet.contents p) in
        ignore (Codec.decode_range u dst ~addr:slot_addr ~size:slot_size);
        spent := !spent + (Calib.now_ns () - t0);
        As.munmap dst ~addr:slot_addr ~size:slot_size
      done;
      float_of_int !spent /. float_of_int (n * pages))
