(* Virtual outputs of every workload on the default seed (42). They are
   the reproduction's guard: a change that moves any of them changes what
   the simulator computes, not only how fast, and must say why. *)

let pin makespan_us wire_bytes migrations digest =
  { Workloads.makespan_us; wire_bytes; migrations; digest }

let pins =
  [
    ("spawn_churn", pin 678648.1910000022 131136 0 "a41d22617274d2dd6d7f56231b4862f7");
    ("compute", pin 71371.175999956584 512 0 "2ff7963baf83e14c802f0e4f150737fb");
    ("hop_plain", pin 1379053.5149999901 170106880 5120 "4fc201568ac2e8d2a2cbc665495622fe");
    ("hop_lossy_delta", pin 932547.72799999174 36361859 5120 "0a7a688af927a40b79f90e14b33e5c83");
  ]

let find name = List.assoc_opt name pins
