(* The traced run's attribution fold.

   A bus sink stamps the monotonic clock at every event and charges the
   interval since the previous event to the layer that event closes:
   tol.ml and controller.ml emit each of these events after the work it
   names, so the gap before an [Interp_block] is interpretation, the gap
   before a [Region_exec] is region execution, and so on.  Every interval
   goes to exactly one layer, and the intervals tile the traced wall time,
   so the layers plus [Other] sum to it exactly. *)

module Event = Darco_obs.Event

type layer = Interp | Bb | Sb | Exec | Controller | Other

let layers = [ Interp; Bb; Sb; Exec; Controller; Other ]

let index = function
  | Interp -> 0
  | Bb -> 1
  | Sb -> 2
  | Exec -> 3
  | Controller -> 4
  | Other -> 5

let name = function
  | Interp -> "core.interp"
  | Bb -> "core.regiongen.bb"
  | Sb -> "core.regiongen.sb"
  | Exec -> "core.exec"
  | Controller -> "core.controller"
  | Other -> "other"

(* The controller's share is everything between slices: booting the
   reference, catching it up to the co-designed component ([Page_install],
   [Validation] close a catch-up), servicing system calls, comparing
   state.  Chaining, IBTC fills and the dispatch loop's residue before a
   [Slice_end] stay in [Other]. *)
let closes : Event.t -> layer = function
  | Interp_block _ | Interp_step _ | Interp_exec _ -> Interp
  | Bb_translated _ -> Bb
  | Sb_translated _ -> Sb
  | Region_exec _ -> Exec
  | Init _ | Clock_sync _ | Slice_start | Page_install _ | Validation _
  | Syscall _ | Halt | Divergence _ ->
    Controller
  | _ -> Other

type t = {
  self_ns : int array;  (* by [index] *)
  mutable last : int;  (* stamp of the previous boundary *)
  mutable tag : int;  (* the program or window the current spans belong to *)
  mutable labels : (int * string) list;
  (* spans, four ints each: tag, layer index, start, stop *)
  mutable spans : int array;
  mutable n_spans : int;
  (* counts at the same boundaries *)
  mutable interp_insns : int;
  mutable bb_count : int;
  mutable sb_count : int;
  mutable sb_guest_insns : int;
  mutable exec_host_insns : int;
  mutable page_installs : int;
  mutable sb_heads : (int * int) list;  (* (tag, head pc), newest first *)
}

let create () =
  {
    self_ns = Array.make (List.length layers) 0;
    last = 0;
    tag = -1;
    labels = [];
    spans = Array.make 4096 0;
    n_spans = 0;
    interp_insns = 0;
    bb_count = 0;
    sb_count = 0;
    sb_guest_insns = 0;
    exec_host_insns = 0;
    page_installs = 0;
    sb_heads = [];
  }

let push_span t layer ~start ~stop =
  let i = 4 * t.n_spans in
  if i + 4 > Array.length t.spans then begin
    let bigger = Array.make (2 * Array.length t.spans) 0 in
    Array.blit t.spans 0 bigger 0 i;
    t.spans <- bigger
  end;
  t.spans.(i) <- t.tag;
  t.spans.(i + 1) <- index layer;
  t.spans.(i + 2) <- start;
  t.spans.(i + 3) <- stop;
  t.n_spans <- t.n_spans + 1

let charge t ~now layer =
  let i = index layer in
  t.self_ns.(i) <- t.self_ns.(i) + (now - t.last);
  push_span t layer ~start:t.last ~stop:now;
  t.last <- now

let count t (ev : Event.t) =
  match ev with
  | Interp_block { insns; _ } -> t.interp_insns <- t.interp_insns + insns
  | Interp_step _ | Interp_exec _ -> t.interp_insns <- t.interp_insns + 1
  | Bb_translated _ -> t.bb_count <- t.bb_count + 1
  | Sb_translated { pc; guest_len; _ } ->
    t.sb_count <- t.sb_count + 1;
    t.sb_guest_insns <- t.sb_guest_insns + guest_len;
    t.sb_heads <- (t.tag, pc) :: t.sb_heads
  | Region_exec { host_bb; host_sb; _ } ->
    t.exec_host_insns <- t.exec_host_insns + host_bb + host_sb
  | Page_install _ -> t.page_installs <- t.page_installs + 1
  | _ -> ()

let event t ~now ev =
  charge t ~now (closes ev);
  count t ev

(* Bracket one traced program or window: [start] opens the first
   interval, [stop] charges the tail after the last event to [Other]. *)
let start t ~label ~now =
  t.tag <- List.length t.labels;
  t.labels <- (t.tag, label) :: t.labels;
  t.last <- now

let stop t ~now = charge t ~now Other

let attach t bus =
  Darco_obs.Bus.attach bus ~name:"perfbench-gapfold" (fun ~at:_ ev ->
      event t ~now:(Util.now_ns ()) ev)

let self_s t layer = Util.secs t.self_ns.(index layer)
let wall_ns t = Array.fold_left ( + ) 0 t.self_ns

(* One line per span: tag, layer, start and duration in ns; then one line
   per tag naming its program or window. *)
let write_spans t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc "# tag\tlayer\tstart_ns\tdur_ns\n";
  let names = Array.of_list (List.map name layers) in
  for k = 0 to t.n_spans - 1 do
    let i = 4 * k in
    Printf.fprintf oc "%d\t%s\t%d\t%d\n" t.spans.(i)
      names.(t.spans.(i + 1))
      t.spans.(i + 2)
      (t.spans.(i + 3) - t.spans.(i + 2))
  done;
  List.iter
    (fun (tag, label) -> Printf.fprintf oc "# tag %d = %s\n" tag label)
    (List.rev t.labels)
