(* Two bits per sequence number, four numbers to a byte, in a
   power-of-two ring: number [s] lives in byte [(s / 4) mod length], at
   bit [2 * (s mod 4)] (SACKed) and the bit above it (retransmitted).
   Every tracked number lies in [base, base + capacity), so no two share
   a slot; [advance] zeroes the slots it leaves behind before they are
   reused for numbers above the window. *)

type t = {
  mutable bits : Bytes.t;
  mutable base : int;
  mutable sacked : int;  (* SACKed bits set *)
  mutable retx : int;  (* retransmitted bits set *)
}

let sacked_bit = 1
let retx_bit = 2

(* Bytes holding only the SACKed bit of each of their four numbers. *)
let sacked_only = 0x55

let create () = { bits = Bytes.empty; base = 0; sacked = 0; retx = 0 }
let sacked t = t.sacked
let retransmitted t = t.retx
let capacity t = 4 * Bytes.length t.bits
let[@inline] byte_of bits s = (s lsr 2) land (Bytes.length bits - 1)
let[@inline] shift_of s = (s land 3) lsl 1

let[@inline] read bits s =
  (Char.code (Bytes.unsafe_get bits (byte_of bits s)) lsr shift_of s) land 3

let[@inline] flip bits s v =
  let b = byte_of bits s in
  Bytes.unsafe_set bits b
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get bits b) lxor (v lsl shift_of s)))

let rec pow2_above n c = if c >= n then c else pow2_above n (2 * c)

(* Make room for [s] >= base: the first call allocates, later ones
   double and re-place every tracked number under the new mask. *)
let ensure t s =
  let need = s - t.base + 1 in
  if need > capacity t then begin
    let old = t.bits in
    t.bits <- Bytes.make (pow2_above ((need + 3) / 4) 16) '\000';
    if t.sacked + t.retx > 0 then
      for s = t.base to t.base + (4 * Bytes.length old) - 1 do
        let v = read old s in
        if v <> 0 then flip t.bits s v
      done
  end

let mark t s bit =
  if s < t.base then invalid_arg "Scoreboard: number below the base";
  ensure t s;
  if read t.bits s land bit = 0 then begin
    flip t.bits s bit;
    true
  end
  else false

let mark_sacked t s =
  let fresh = mark t s sacked_bit in
  if fresh then t.sacked <- t.sacked + 1;
  fresh

let mark_retx t s = if mark t s retx_bit then t.retx <- t.retx + 1

let is_marked t s =
  s >= t.base && s < t.base + capacity t && read t.bits s <> 0

(* Zero [s, stop) and return how many SACKed bits that dropped. *)
let rec drop t s stop dropped =
  if s >= stop || t.sacked + t.retx = 0 then dropped
  else begin
    let v = read t.bits s in
    if v = 0 then drop t (s + 1) stop dropped
    else begin
      flip t.bits s v;
      if v land retx_bit <> 0 then t.retx <- t.retx - 1;
      if v land sacked_bit <> 0 then begin
        t.sacked <- t.sacked - 1;
        drop t (s + 1) stop (dropped + 1)
      end
      else drop t (s + 1) stop dropped
    end
  end

let advance t ack =
  if ack <= t.base then 0
  else begin
    let dropped = drop t t.base (Int.min ack (t.base + capacity t)) 0 in
    t.base <- ack;
    dropped
  end

let clear_retx t =
  if t.retx > 0 then begin
    for b = 0 to Bytes.length t.bits - 1 do
      Bytes.unsafe_set t.bits b
        (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.bits b) land sacked_only))
    done;
    t.retx <- 0
  end

let clear t =
  if t.sacked + t.retx > 0 then begin
    Bytes.fill t.bits 0 (Bytes.length t.bits) '\000';
    t.sacked <- 0;
    t.retx <- 0
  end
