(* The benchmark's own rules: the percentile reporting rule, the
   calibration scaling, and the event-family classifier of the traced
   run. *)

open Perfbench
module E = Pm2_obs.Event

let feq = Alcotest.float 1e-9

let percentile_rule () =
  Alcotest.(check int) "p95 needs 200 samples" 200 (Stats.samples_needed 0.95);
  Alcotest.(check int) "p50 needs 20 samples" 20 (Stats.samples_needed 0.5);
  Alcotest.(check bool) "199 samples: only 9 beyond p95" false (Stats.reportable ~n:199 0.95);
  Alcotest.(check bool) "200 samples: 10 beyond p95" true (Stats.reportable ~n:200 0.95);
  Alcotest.(check int) "beyond p95 of 1000" 50 (Stats.beyond ~n:1000 0.95);
  let sorted = Array.init 200 (fun i -> float_of_int (i + 1)) in
  Alcotest.check feq "nearest-rank p95" 190. (Stats.percentile sorted 0.95);
  Alcotest.check feq "nearest-rank p50" 100. (Stats.percentile sorted 0.5);
  Alcotest.check feq "p100 is the maximum" 200. (Stats.percentile sorted 1.0);
  Alcotest.check feq "odd median" 2. (Stats.median_mid [| 3.; 1.; 2. |]);
  Alcotest.check feq "even median" 2.5 (Stats.median_mid [| 4.; 1.; 3.; 2. |])

let buffer_growth () =
  let b = Stats.buf () in
  for i = 1 to 5000 do
    Stats.push b (float_of_int i)
  done;
  Alcotest.(check int) "length" 5000 (Stats.length b);
  Alcotest.check feq "last" 5000. (Stats.get b 4999);
  Alcotest.check feq "median" 2500.5 (Stats.median_mid (Stats.to_array b))

let scaling () =
  let ref_ms = Calib.ref_cal_ms in
  Alcotest.check feq "reference host: time unchanged" 7. (Calib.scale_time ~cal_ms:ref_ms 7.);
  Alcotest.check feq "reference host: rate unchanged" 7. (Calib.scale_rate ~cal_ms:ref_ms 7.);
  (* A host twice as slow stretches the episode and the calibration
     alike: both scale back to the reference figure. *)
  Alcotest.check feq "slow host: time halved" 5. (Calib.scale_time ~cal_ms:(2. *. ref_ms) 10.);
  Alcotest.check feq "slow host: rate doubled" 20. (Calib.scale_rate ~cal_ms:(2. *. ref_ms) 10.);
  let work = 300. and secs = 0.04 and cal_ms = 0.7 *. ref_ms in
  Alcotest.check feq "rate and time scale consistently"
    (Calib.scale_rate ~cal_ms (work /. secs))
    (work /. Calib.scale_time ~cal_ms secs);
  let c = Calib.calibrate () in
  Alcotest.(check bool) "calibration takes measurable time" true (Float.is_finite c && c > 0.)

let layer = Alcotest.testable (fun ppf l -> Format.pp_print_string ppf (Classify.name l)) ( = )

let classifier () =
  let check name expected events = Alcotest.check layer name expected (Classify.of_step events) in
  let send = E.Packet_send { src = 0; dst = 1; bytes = 64 } in
  let pack = E.Pack_slot { tid = 1; slot = 2; bytes = 4096 } in
  let hit = E.Delta_hit { tid = 1; pages = 3 } in
  let neg = E.Neg_request { requester = 0; n = 2 } in
  let reserve = E.Slot_reserve { slot = 3; n = 1; cache_hit = true } in
  let iso = E.Block_alloc { heap = E.Iso; addr = 0; bytes = 64 } in
  let local = E.Block_alloc { heap = E.Local; addr = 0; bytes = 64 } in
  let print = E.Thread_printf { tid = 1; text = "x" } in
  check "no event: MVM quantum and scheduler" Classify.Sched [];
  check "guest output is scheduler work" Classify.Sched [ print ];
  check "network alone" Classify.Net [ send; print ];
  check "local heap beats network" Classify.Heap [ send; local ];
  check "iso block is slot work" Classify.Slots [ iso ];
  check "slots beat the local heap" Classify.Slots [ local; reserve ];
  check "negotiation beats slots" Classify.Negotiation [ reserve; neg; send ];
  check "delta beats negotiation" Classify.Delta [ neg; hit ];
  check "migration beats everything, in any order" Classify.Migration [ send; hit; pack; neg ];
  check "group phases are migration" Classify.Migration
    [ E.Group_migration_commit { gid = 1; dst = 1; members = 2; bytes = 10 }; hit ];
  check "reliable-layer retransmit is network" Classify.Net
    [ E.Net_retransmit { src = 0; dst = 1; seq = 1; attempt = 2; bytes = 8 } ];
  Alcotest.(check int) "every layer has its own slot" (List.length Classify.all)
    (List.length (List.sort_uniq compare (List.map Classify.index Classify.all)))

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "percentile rule" `Quick percentile_rule;
          Alcotest.test_case "sample buffer" `Quick buffer_growth;
          Alcotest.test_case "calibration scaling" `Quick scaling;
          Alcotest.test_case "event-family classifier" `Quick classifier;
        ] );
    ]
