module Engine = Pm2_sim.Engine
module Cm = Pm2_sim.Cost_model
module Pk = Pm2_net.Packet
module Network = Pm2_net.Network

(* -- Packet -- *)

let test_packet_roundtrip () =
  let p = Pk.packer () in
  Pk.pack_int p 42;
  Pk.pack_int p (-7);
  Pk.pack_float p 3.25;
  Pk.pack_string p "hello";
  Pk.pack_bytes p (Bytes.of_string "\000\001\002");
  Pk.pack_list p (Pk.pack_int p) [ 1; 2; 3 ];
  let u = Pk.unpacker (Pk.contents p) in
  Alcotest.(check int) "int" 42 (Pk.unpack_int u);
  Alcotest.(check int) "negative int" (-7) (Pk.unpack_int u);
  Alcotest.(check (float 0.)) "float" 3.25 (Pk.unpack_float u);
  Alcotest.(check string) "string" "hello" (Pk.unpack_string u);
  Alcotest.(check bytes) "bytes" (Bytes.of_string "\000\001\002") (Pk.unpack_bytes u);
  Alcotest.(check (list int)) "list" [ 1; 2; 3 ] (Pk.unpack_list u (fun () -> Pk.unpack_int u));
  Alcotest.(check int) "fully consumed" 0 (Pk.remaining u)

let test_packet_sizes () =
  let p = Pk.packer () in
  Alcotest.(check int) "empty" 0 (Pk.packed_size p);
  Pk.pack_int p 1;
  Alcotest.(check int) "int is 8 bytes" 8 (Pk.packed_size p);
  Pk.pack_string p "abc";
  Alcotest.(check int) "string is length-prefixed" (8 + 8 + 3) (Pk.packed_size p)

let test_packet_truncated () =
  let p = Pk.packer () in
  Pk.pack_int p 1;
  let data = Pk.contents p in
  let u = Pk.unpacker (Bytes.sub data 0 4) in
  Alcotest.(check bool) "truncated rejected" true
    (try ignore (Pk.unpack_int u); false with Invalid_argument _ -> true)

let prop_packet_ints =
  QCheck2.Test.make ~name:"packet roundtrips any int list"
    QCheck2.Gen.(list int)
    (fun l ->
       let p = Pk.packer () in
       Pk.pack_list p (Pk.pack_int p) l;
       let u = Pk.unpacker (Pk.contents p) in
       Pk.unpack_list u (fun () -> Pk.unpack_int u) = l && Pk.remaining u = 0)

(* [pack_mem] copies simulated memory straight into the packer's
   (uninitialised) buffer: every byte of the window must come from the
   range — data and demand-zero pages alike — and nothing else. *)
let test_pack_mem_fills_window () =
  let module As = Pm2_vmem.Address_space in
  let page = Pm2_vmem.Layout.page_size in
  let space = As.create ~node:0 () in
  let base = 0x200000 in
  As.mmap space ~addr:base ~size:(3 * page);
  As.store_bytes space (base + 100) (Bytes.make 200 'a');
  As.store_bytes space ((2 * page) + base - 50) (Bytes.make 300 'b');
  let addr = base + 60 and len = (3 * page) - 100 in
  let p = Pk.packer ~size:8 () in
  Pk.pack_int p 7;
  Pk.pack_mem p space ~addr ~len;
  Pk.pack_mem_unprefixed p space ~addr:(base + page - 10) ~len:20;
  Pk.pack_int p 9;
  Alcotest.(check int) "size" (8 + 8 + len + 20 + 8) (Pk.packed_size p);
  Alcotest.check_raises "negative length" (Invalid_argument "Packet.pack_mem") (fun () ->
      Pk.pack_mem p space ~addr ~len:(-1));
  Alcotest.(check int) "cursor kept" (8 + 8 + len + 20 + 8) (Pk.packed_size p);
  (match Pk.pack_mem p space ~addr:(base + (3 * page) - 8) ~len:16 with
   | () -> Alcotest.fail "unmapped tail packed"
   | exception As.Segfault _ -> ());
  Alcotest.(check int) "failed copy packs nothing" (8 + 8 + len + 20 + 8) (Pk.packed_size p);
  let u = Pk.unpacker (Pk.contents p) in
  Alcotest.(check int) "lead" 7 (Pk.unpack_int u);
  Alcotest.(check bool) "prefixed range" true
    (Bytes.equal (Pk.unpack_bytes u) (As.load_bytes space addr len));
  let data, pos = Pk.unpack_take u 20 in
  Alcotest.(check bool) "unprefixed range" true
    (Bytes.equal (Bytes.sub data pos 20) (As.load_bytes space (base + page - 10) 20))

let test_contents_hand_over () =
  (* An exactly-full packer hands its buffer over; later writes must not
     show through it. *)
  let p = Pk.packer ~size:16 () in
  Pk.pack_int p 1;
  let slot = Pk.pack_int_slot p in
  Pk.patch_int p slot 2;
  let b = Pk.contents p in
  Pk.patch_int p slot 3;
  Pk.pack_int p 4;
  let ints b = let u = Pk.unpacker b in
    List.init (Bytes.length b / 8) (fun _ -> Pk.unpack_int u) in
  Alcotest.(check (list int)) "handed-over bytes unchanged" [ 1; 2 ] (ints b);
  Alcotest.(check (list int)) "packer continues" [ 1; 3; 4 ] (ints (Pk.contents p))

(* -- Checksum -- *)

(* Pinned values of the documented definition (packet.mli), computed
   independently: a change to the checksum shows up here first. *)
let test_checksum_known_answers () =
  let ck s = Pk.checksum (Bytes.of_string s) in
  Alcotest.(check int) "empty" 2737183428366584608 (ck "");
  Alcotest.(check int) "one zero byte" 679960395290100798 (ck "\000");
  Alcotest.(check int) "one byte" 2667876940787578512 (ck "a");
  Alcotest.(check int) "one word" 3434974341070572995 (ck "abcdefgh");
  Alcotest.(check int) "word + tail" 2842540181505776453 (ck "hello, world!");
  let b = Bytes.init 7168 (fun i -> Char.chr (((i * 31) + 7) land 255)) in
  Alcotest.(check int) "7 KB" 2165692993771068483 (Pk.checksum b);
  Alcotest.(check int) "sub = copy" (Pk.checksum (Bytes.sub b 3 1000))
    (Pk.checksum_sub b ~pos:3 ~len:1000)

(* Flip every byte position of [b] through each XOR mask of [masks];
   each must change the sum. *)
let single_byte_xors_detected ~masks b =
  let len = Bytes.length b in
  let base = Pk.checksum b in
  for i = 0 to len - 1 do
    let c = Char.code (Bytes.get b i) in
    List.iter
      (fun x ->
        Bytes.set b i (Char.chr (c lxor x));
        if Pk.checksum_sub b ~pos:0 ~len = base then
          Alcotest.failf "len %d: xor 0x%02x at %d undetected" len x i)
      masks;
    Bytes.set b i (Char.chr c)
  done

let test_checksum_single_byte_xor () =
  let all = List.init 255 (fun x -> x + 1) in
  for len = 0 to 40 do
    single_byte_xors_detected ~masks:all
      (Bytes.init len (fun i -> Char.chr ((i * 7) land 255)))
  done;
  (* The 7 KB image (a typical delta hop) at every position with every
     single-bit flip and a full-byte flip: all 255 masks there take ~5 s. *)
  single_byte_xors_detected
    ~masks:[ 0x01; 0x02; 0x04; 0x08; 0x10; 0x20; 0x40; 0x80; 0xff ]
    (Bytes.init 7168 (fun i -> Char.chr (((i * 31) + 7) land 255)))

let test_checksum_zero_padding () =
  (* The length is folded in: zero bytes appended or removed (which FNV
     over words alone would absorb into an unchanged tail) change the
     sum. *)
  for len = 0 to 40 do
    let b = Bytes.init len (fun i -> Char.chr ((i * 13) land 255)) in
    let longer = Bytes.cat b (Bytes.make 1 '\000') in
    if Pk.checksum longer = Pk.checksum b then
      Alcotest.failf "len %d: appended zero byte undetected" len;
    let zeros = Bytes.make (len + 1) '\000' in
    if Pk.checksum zeros = Pk.checksum (Bytes.sub zeros 0 len) then
      Alcotest.failf "len %d: removed zero byte undetected" len
  done

let test_checksum_allocates_nothing () =
  (* A closure-captured [Int64] ref boxes on every step; the word loop
     must not allocate at all. *)
  let b = Bytes.init 65536 (fun i -> Char.chr (i land 255)) in
  ignore (Sys.opaque_identity (Pk.checksum b));
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Pk.checksum b));
  let after = Gc.minor_words () in
  Alcotest.(check (float 0.)) "minor words over 64 KB" 0. (after -. before)

(* -- Network -- *)

let make () =
  let e = Engine.create () in
  (e, Network.create e Cm.default ~nodes:3)

let test_send_delivery_time () =
  let e, net = make () in
  let payload = Bytes.make 1000 'x' in
  let arrival = ref 0. in
  Network.send net ~src:0 ~dst:1 payload (fun b ->
      Alcotest.(check int) "payload intact" 1000 (Bytes.length b);
      arrival := Engine.now e);
  ignore (Engine.run e);
  let cm = Cm.default in
  Alcotest.(check (float 1e-6)) "latency + size/bandwidth"
    (cm.Cm.net_latency +. (1000. *. cm.Cm.net_per_byte))
    !arrival

let test_self_send () =
  let e, net = make () in
  let delivered = ref false in
  Network.send net ~src:2 ~dst:2 (Bytes.create 64) (fun _ -> delivered := true);
  ignore (Engine.run e);
  Alcotest.(check bool) "self-send delivered" true !delivered

let test_stats () =
  let e, net = make () in
  Network.send net ~src:0 ~dst:1 (Bytes.create 100) ignore;
  Network.send net ~src:0 ~dst:1 (Bytes.create 50) ignore;
  Network.send net ~src:1 ~dst:0 (Bytes.create 10) ignore;
  ignore (Engine.run e);
  Alcotest.(check int) "messages" 3 (Network.messages_sent net);
  Alcotest.(check int) "bytes" 160 (Network.bytes_sent net);
  Alcotest.(check (pair int int)) "link 0->1" (2, 150) (Network.link_stats net ~src:0 ~dst:1);
  Alcotest.(check (pair int int)) "link 1->0" (1, 10) (Network.link_stats net ~src:1 ~dst:0);
  Network.record_virtual net ~src:2 ~dst:0 ~bytes:999;
  Alcotest.(check (pair int int)) "virtual traffic" (1, 999)
    (Network.link_stats net ~src:2 ~dst:0);
  Network.reset_stats net;
  Alcotest.(check int) "reset" 0 (Network.messages_sent net)

(* record_virtual models traffic that never travels as a packet object
   (e.g. host-mode migration): it must book-keep exactly like a real
   send — counters on the link, and a symmetric Packet_send /
   Packet_deliver pair in the event stream. *)
let test_record_virtual_events () =
  let e = Engine.create () in
  let obs = Pm2_obs.Collector.create ~now:(fun () -> Engine.now e) () in
  let ring = Pm2_obs.Ring.create ~capacity:16 in
  Pm2_obs.Collector.attach obs (Pm2_obs.Ring.sink ring);
  let net = Network.create ~obs e Cm.default ~nodes:3 in
  Network.record_virtual net ~src:2 ~dst:0 ~bytes:777;
  let events =
    List.map (fun r -> (r.Pm2_obs.Ring.node, r.Pm2_obs.Ring.event))
      (Pm2_obs.Ring.to_list ring)
  in
  Alcotest.(check int) "two events" 2 (List.length events);
  (match events with
   | [ (n1, Pm2_obs.Event.Packet_send { src; dst; bytes });
       (n2, Pm2_obs.Event.Packet_deliver { src = src'; dst = dst'; bytes = bytes' }) ] ->
     Alcotest.(check int) "send attributed to src" 2 n1;
     Alcotest.(check int) "deliver attributed to dst" 0 n2;
     Alcotest.(check (triple int int int)) "send payload" (2, 0, 777) (src, dst, bytes);
     Alcotest.(check (triple int int int)) "deliver payload" (2, 0, 777) (src', dst', bytes')
   | _ -> Alcotest.fail "expected a Packet_send / Packet_deliver pair");
  Alcotest.(check (pair int int)) "link counters" (1, 777)
    (Network.link_stats net ~src:2 ~dst:0)

let test_link_stats_reset () =
  let e, net = make () in
  Network.send net ~src:0 ~dst:1 (Bytes.create 100) ignore;
  Network.record_virtual net ~src:0 ~dst:1 ~bytes:20;
  ignore (Engine.run e);
  Alcotest.(check (pair int int)) "real + virtual on one link" (2, 120)
    (Network.link_stats net ~src:0 ~dst:1);
  Alcotest.(check (pair int int)) "untouched link" (0, 0)
    (Network.link_stats net ~src:1 ~dst:0);
  Network.reset_stats net;
  Alcotest.(check (pair int int)) "link zeroed" (0, 0)
    (Network.link_stats net ~src:0 ~dst:1);
  Alcotest.(check int) "messages zeroed" 0 (Network.messages_sent net);
  Alcotest.(check int) "bytes zeroed" 0 (Network.bytes_sent net)

let test_bad_node () =
  let _, net = make () in
  Alcotest.(check bool) "bad dst" true
    (try Network.send net ~src:0 ~dst:9 Bytes.empty ignore; false
     with Invalid_argument _ -> true)

let test_ordering_by_size () =
  (* A small message sent after a big one still arrives earlier: the model
     is per-message latency, not a shared serial link (full crossbar). *)
  let e, net = make () in
  let log = ref [] in
  Network.send net ~src:0 ~dst:1 (Bytes.create 100_000) (fun _ -> log := "big" :: !log);
  Network.send net ~src:0 ~dst:1 (Bytes.create 10) (fun _ -> log := "small" :: !log);
  ignore (Engine.run e);
  Alcotest.(check (list string)) "small overtakes big" [ "small"; "big" ] (List.rev !log)

let tests =
  [
    Alcotest.test_case "packet roundtrip" `Quick test_packet_roundtrip;
    Alcotest.test_case "packet sizes" `Quick test_packet_sizes;
    Alcotest.test_case "packet truncation" `Quick test_packet_truncated;
    QCheck_alcotest.to_alcotest prop_packet_ints;
    Alcotest.test_case "delivery time model" `Quick test_send_delivery_time;
    Alcotest.test_case "self send" `Quick test_self_send;
    Alcotest.test_case "traffic statistics" `Quick test_stats;
    Alcotest.test_case "record_virtual emits send+deliver" `Quick
      test_record_virtual_events;
    Alcotest.test_case "link stats and reset" `Quick test_link_stats_reset;
    Alcotest.test_case "bad node rejected" `Quick test_bad_node;
    Alcotest.test_case "crossbar semantics" `Quick test_ordering_by_size;
    Alcotest.test_case "checksum known answers" `Quick test_checksum_known_answers;
    Alcotest.test_case "checksum: every single-byte xor" `Quick
      test_checksum_single_byte_xor;
    Alcotest.test_case "checksum: zero padding detected" `Quick test_checksum_zero_padding;
    Alcotest.test_case "checksum allocates nothing" `Quick test_checksum_allocates_nothing;
    Alcotest.test_case "pack_mem fills its window" `Quick test_pack_mem_fills_window;
    Alcotest.test_case "contents hands over a full packer" `Quick test_contents_hand_over;
  ]
