(* Order statistics with the benchmark's reporting rule: a percentile is
   reported only when at least [min_beyond] samples lie beyond it, so a
   p95 needs at least 200 samples. Kept here rather than taken from
   [Pm2_util], so that a change to the library cannot change how the
   benchmark summarises its own measurements. *)

let min_beyond = 10

(* Nearest-rank percentile of an ascending-sorted array: the smallest
   sample with at least [p] of the samples at or below it. *)
let rank ~n p = max 1 (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9)))

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  sorted.(rank ~n p - 1)

(* Samples strictly beyond the [p]-th percentile's rank. *)
let beyond ~n p = n - rank ~n p

let reportable ~n p = beyond ~n p >= min_beyond

(* Fewest samples for which [reportable] holds. *)
let samples_needed p =
  let rec go n = if reportable ~n p then n else go (n + 1) in
  go 1

let sorted_copy a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* Median of a float array whose entries may be interpolated between the
   two middle samples; used for run-level medians (setup, calibration). *)
let median_mid a =
  let s = sorted_copy a in
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.median_mid: no samples"
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* A growable float buffer: samples are pushed on the hot path without
   allocating (amortised), and read back as an array. *)
type buf = {
  mutable data : float array;
  mutable len : int;
}

let buf () = { data = Array.make 1024 0.; len = 0 }

let push b x =
  if b.len = Array.length b.data then begin
    let d = Array.make (2 * b.len) 0. in
    Array.blit b.data 0 d 0 b.len;
    b.data <- d
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

let length b = b.len
let get b i = b.data.(i)
let to_array b = Array.sub b.data 0 b.len
