type sink = { name : string; handle : at:int -> Event.t -> unit }

type retire = {
  batch : Darco_host.Retire.t;
  consume : Darco_host.Retire.t -> unit;
  describe : Darco_host.Code.insn -> int;
}

type t = {
  mutable sinks : sink array;
  mutable retire_hook : retire option;
  (* guards sink/subscription registration only: emission reads one
     immutable array snapshot and stays lock-free, so the unobserved hot
     path is exactly as cheap as before domains existed *)
  lock : Mutex.t;
}

(* Entries per retire batch: the walker flushes this many at a time.  On
   suite-timed, 256 and 4,096 entries ran within noise of this, and 4,096
   cost 0.3 MB more peak RSS. *)
let batch_capacity = 1024

let create () = { sinks = [||]; retire_hook = None; lock = Mutex.create () }

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

let on_retire t ?(describe = fun _ -> 0) consume =
  locked t (fun () ->
      if Option.is_some t.retire_hook then
        invalid_arg "Bus.on_retire: the bus already has a retire subscriber";
      t.retire_hook <-
        Some { batch = Darco_host.Retire.create batch_capacity; consume; describe })

let retire_hook t = t.retire_hook
