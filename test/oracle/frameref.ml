(* The alternating-bit layer's bit codec as it was before [Msgpass.Alt_bit]
   took the framing over and began walking a message's frame with a
   cursor, kept as a differential oracle: strings become [bool list]s (8
   bits per byte, most significant first), [frame] puts a 0 continuation
   flag before every payload bit and a 1 terminator at the end, and the
   deframer conses bits onto a list until the terminator. test_msgpass
   holds the channel's published bits and delivered messages to it. *)

let bits_of_string s =
  String.fold_right
    (fun c acc ->
      let code = Char.code c in
      List.init 8 (fun k -> code land (1 lsl (7 - k)) <> 0) @ acc)
    s []

let string_of_bits bits =
  if List.length bits mod 8 <> 0 then
    invalid_arg "Codec.string_of_bits: length not a multiple of 8";
  let buf = Bytes.create (List.length bits / 8) in
  let rec go i = function
    | [] -> Bytes.to_string buf
    | b7 :: b6 :: b5 :: b4 :: b3 :: b2 :: b1 :: b0 :: rest ->
        let bit v k = if v then 1 lsl k else 0 in
        let code =
          bit b7 7 lor bit b6 6 lor bit b5 5 lor bit b4 4 lor bit b3 3
          lor bit b2 2 lor bit b1 1 lor bit b0 0
        in
        Bytes.set buf i (Char.chr code);
        go (i + 1) rest
    | _ -> assert false
  in
  go 0 bits

(* One continuation flag before every payload bit (0 = a payload bit
   follows, 1 = end of frame): self-delimiting and unambiguous even for
   empty payloads. *)
let frame payload =
  List.concat_map (fun b -> [ false; b ]) payload @ [ true ]

type deframer = {
  mutable bits : bool list;  (** payload bits so far, newest first *)
  mutable awaiting_payload : bool;
}

let deframer () = { bits = []; awaiting_payload = false }

let feed d b =
  if d.awaiting_payload then begin
    d.awaiting_payload <- false;
    d.bits <- b :: d.bits;
    None
  end
  else if b then begin
    let payload = List.rev d.bits in
    d.bits <- [];
    Some payload
  end
  else begin
    d.awaiting_payload <- true;
    None
  end

let encode s = frame (bits_of_string s)

type decoder = deframer

let decoder () = deframer ()
let decode d b = Option.map string_of_bits (feed d b)
