type t = {
  tolmem : Tolmem.t;
  interp : (int, int) Hashtbl.t;
  exec : (int, int) Hashtbl.t;         (* pc -> counter address *)
  edges : (int, int * int) Hashtbl.t;  (* pc -> (taken, fall) addresses *)
}

let create tolmem =
  { tolmem; interp = Hashtbl.create 256; exec = Hashtbl.create 256; edges = Hashtbl.create 256 }

let note_interp t pc =
  let c = 1 + Option.value (Hashtbl.find_opt t.interp pc) ~default:0 in
  Hashtbl.replace t.interp pc c;
  c

let interp_count t pc = Option.value (Hashtbl.find_opt t.interp pc) ~default:0

let exec_counter t pc =
  match Hashtbl.find_opt t.exec pc with
  | Some a -> a
  | None ->
    let a = Tolmem.alloc t.tolmem 4 in
    Hashtbl.replace t.exec pc a;
    a

let edge_counters t pc =
  match Hashtbl.find_opt t.edges pc with
  | Some pair -> pair
  | None ->
    let taken = Tolmem.alloc t.tolmem 4 in
    let fall = Tolmem.alloc t.tolmem 4 in
    Hashtbl.replace t.edges pc (taken, fall);
    (taken, fall)

let edge_counts t pc =
  match Hashtbl.find_opt t.edges pc with
  | None -> None
  | Some (ta, fa) -> Some (Tolmem.read32 t.tolmem ta, Tolmem.read32 t.tolmem fa)

type persisted = {
  p_interp : (int * int) list;
  p_exec : (int * int) list;
  p_edges : (int * (int * int)) list;
}

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let persist t =
  {
    p_interp = sorted_bindings t.interp;
    p_exec = sorted_bindings t.exec;
    p_edges = sorted_bindings t.edges;
  }

let unpersist tolmem p =
  let t = create tolmem in
  List.iter (fun (pc, c) -> Hashtbl.replace t.interp pc c) p.p_interp;
  List.iter (fun (pc, a) -> Hashtbl.replace t.exec pc a) p.p_exec;
  List.iter (fun (pc, pair) -> Hashtbl.replace t.edges pc pair) p.p_edges;
  t

let histogram t =
  let tbl = Hashtbl.create 64 in
  Hashtbl.iter (fun pc c -> Hashtbl.replace tbl pc c) t.interp;
  Hashtbl.iter
    (fun pc addr ->
      let prev = Option.value (Hashtbl.find_opt tbl pc) ~default:0 in
      Hashtbl.replace tbl pc (prev + Tolmem.read32 t.tolmem addr))
    t.exec;
  Hashtbl.fold (fun pc c acc -> (pc, c) :: acc) tbl [] |> List.sort compare
