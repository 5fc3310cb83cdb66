let enc chunks =
  let buf = Buffer.create 64 in
  List.iter
    (fun chunk ->
      Buffer.add_string buf (string_of_int (String.length chunk));
      Buffer.add_char buf ':';
      Buffer.add_string buf chunk)
    chunks;
  Buffer.contents buf

let dec s =
  let malformed () = invalid_arg "Wire.dec: malformed input" in
  let len = String.length s in
  let rec go pos acc =
    if pos = len then List.rev acc
    else
      match String.index_from_opt s pos ':' with
      | None -> malformed ()
      | Some colon ->
          let size =
            match int_of_string_opt (String.sub s pos (colon - pos)) with
            | Some v when v >= 0 -> v
            | Some _ | None -> malformed ()
          in
          if colon + 1 + size > len then malformed ();
          go (colon + 1 + size) (String.sub s (colon + 1) size :: acc)
  in
  go 0 []

type 'v codec = { to_string : 'v -> string; of_string : string -> 'v }

let int_codec = { to_string = string_of_int; of_string = int_of_string }

let pair_codec a b =
  {
    to_string = (fun (x, y) -> enc [ a.to_string x; b.to_string y ]);
    of_string =
      (fun s ->
        match dec s with
        | [ x; y ] -> (a.of_string x, b.of_string y)
        | _ -> invalid_arg "Wire.pair_codec");
  }

let list_codec a =
  {
    to_string = (fun l -> enc (List.map a.to_string l));
    of_string = (fun s -> List.map a.of_string (dec s));
  }

let rational_codec =
  {
    to_string =
      (fun q ->
        enc
          [
            string_of_int (Bits.Rational.num q);
            string_of_int (Bits.Rational.den q);
          ]);
    of_string =
      (fun s ->
        match dec s with
        | [ n; d ] -> Bits.Rational.make (int_of_string n) (int_of_string d)
        | _ -> invalid_arg "Wire.rational_codec");
  }

let cell_codec v i =
  {
    to_string =
      (fun cell ->
        match (cell : _ Interp.cell) with
        | Interp.Coord value -> enc [ "C"; v.to_string value ]
        | Interp.Input None -> enc [ "N" ]
        | Interp.Input (Some x) -> enc [ "I"; i.to_string x ]);
    of_string =
      (fun s ->
        match dec s with
        | [ "C"; value ] -> Interp.Coord (v.of_string value)
        | [ "N" ] -> Interp.Input None
        | [ "I"; x ] -> Interp.Input (Some (i.of_string x))
        | _ -> invalid_arg "Wire.cell_codec");
  }

let abd_msg_codec v =
  {
    to_string =
      (fun msg ->
        match (msg : _ Abd.msg) with
        | Abd.Write_req { reg; ts; value; op } ->
            enc
              [
                "W"; string_of_int reg; string_of_int ts; v.to_string value;
                string_of_int op;
              ]
        | Abd.Write_ack { reg; op } ->
            enc [ "A"; string_of_int reg; string_of_int op ]
        | Abd.Read_req { reg; op } ->
            enc [ "R"; string_of_int reg; string_of_int op ]
        | Abd.Read_reply { reg; ts; value; op } ->
            enc
              [
                "Y"; string_of_int reg; string_of_int ts; v.to_string value;
                string_of_int op;
              ]);
    of_string =
      (fun s ->
        match dec s with
        | [ "W"; reg; ts; value; op ] ->
            Abd.Write_req
              {
                reg = int_of_string reg;
                ts = int_of_string ts;
                value = v.of_string value;
                op = int_of_string op;
              }
        | [ "A"; reg; op ] ->
            Abd.Write_ack { reg = int_of_string reg; op = int_of_string op }
        | [ "R"; reg; op ] ->
            Abd.Read_req { reg = int_of_string reg; op = int_of_string op }
        | [ "Y"; reg; ts; value; op ] ->
            Abd.Read_reply
              {
                reg = int_of_string reg;
                ts = int_of_string ts;
                value = v.of_string value;
                op = int_of_string op;
              }
        | _ -> invalid_arg "Wire.abd_msg_codec");
  }

let envelope_codec m =
  {
    to_string =
      (fun { Router.origin; seq; dest; body } ->
        enc
          [
            string_of_int origin; string_of_int seq; string_of_int dest;
            m.to_string body;
          ]);
    of_string =
      (fun s ->
        match dec s with
        | [ origin; seq; dest; body ] ->
            {
              Router.origin = int_of_string origin;
              seq = int_of_string seq;
              dest = int_of_string dest;
              body = m.of_string body;
            }
        | _ -> invalid_arg "Wire.envelope_codec");
  }

(* The fixed-width companion of the string codecs above: ABD messages
   bit-packed into immediate ints for the allocation-free fast path. *)
module Pack = Pack
