(* Hand-rolled JSON: one escaper, one number scanner.  No dependencies, so
   every library and executable can link it. *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let number_field text key =
  let needle = "\"" ^ key ^ "\":" in
  let n = String.length text and m = String.length needle in
  let rec find i =
    if i + m > n then None
    else if String.sub text i m <> needle then find (i + 1)
    else begin
      let j = ref (i + m) in
      while !j < n && text.[!j] = ' ' do incr j done;
      let k = ref !j in
      while !k < n && String.contains "0123456789+-.eE" text.[!k] do incr k done;
      if !k > !j then Some (String.sub text !j (!k - !j)) else None
    end
  in
  find 0
