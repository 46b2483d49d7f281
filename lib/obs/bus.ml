type sink = { name : string; handle : at:int -> Event.t -> unit }
type retire = Darco_host.Emulator.retire_info -> unit

type t = {
  mutable sinks : sink array;
  mutable retire_subs : retire list;
  mutable retire_hook : retire option;
  (* guards sink/subscription registration only: emission reads one
     immutable array snapshot and stays lock-free, so the unobserved hot
     path is exactly as cheap as before domains existed *)
  lock : Mutex.t;
}

let create () =
  { sinks = [||]; retire_subs = []; retire_hook = None; lock = Mutex.create () }

let active t = Array.length t.sinks > 0

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let attach t ~name handle =
  locked t (fun () ->
      t.sinks <- Array.append t.sinks [| { name; handle } |])

let emit t ~at ev =
  let sinks = t.sinks in
  for i = 0 to Array.length sinks - 1 do
    sinks.(i).handle ~at ev
  done

let on_retire t f =
  locked t (fun () ->
      t.retire_subs <- t.retire_subs @ [ f ];
      t.retire_hook <-
        (match t.retire_subs with
        | [] -> None
        | [ f ] -> Some f
        | fs -> Some (fun ri -> List.iter (fun g -> g ri) fs)))

let retire_hook t = t.retire_hook
