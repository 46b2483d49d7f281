type stats = { mutable issued : int; mutable triggered : int }

type entry = {
  mutable tag : int;
  mutable last_addr : int;
  mutable stride : int;
  mutable confidence : int;
}

type t = {
  table : entry array;
  mask : int;
  into : Cache.t;
  degree : int;
  enabled : bool;
  stats : stats;
}

let create (cfg : Tconfig.t) ~into =
  {
    table =
      Array.init cfg.prefetch_table (fun _ ->
          { tag = -1; last_addr = 0; stride = 0; confidence = 0 });
    mask = cfg.prefetch_table - 1;
    into;
    degree = cfg.prefetch_degree;
    enabled = cfg.prefetch;
    stats = { issued = 0; triggered = 0 };
  }

let observe t ~pc ~addr =
  if t.enabled then begin
    let e = t.table.((pc lsr 2) land t.mask) in
    if e.tag <> pc then begin
      e.tag <- pc;
      e.last_addr <- addr;
      e.stride <- 0;
      e.confidence <- 0
    end
    else begin
      let stride = addr - e.last_addr in
      if stride <> 0 && stride = e.stride then e.confidence <- Int.min 4 (e.confidence + 1)
      else e.confidence <- 0;
      e.stride <- stride;
      e.last_addr <- addr;
      if e.confidence >= 2 then begin
        t.stats.triggered <- t.stats.triggered + 1;
        for k = 1 to t.degree do
          let target = addr + (k * stride) in
          if target >= 0 then begin
            t.stats.issued <- t.stats.issued + 1;
            Cache.prefetch t.into target
          end
        done
      end
    end
  end

let stats t = t.stats

type persisted = {
  p_table : (int * int * int * int) array;  (* (tag, last_addr, stride, confidence) *)
  p_issued : int;
  p_triggered : int;
}

let persist t =
  {
    p_table =
      Array.map (fun e -> (e.tag, e.last_addr, e.stride, e.confidence)) t.table;
    p_issued = t.stats.issued;
    p_triggered = t.stats.triggered;
  }

let apply t p =
  if Array.length p.p_table <> Array.length t.table then
    invalid_arg "Prefetch.apply: persisted table size mismatch";
  Array.iteri
    (fun i (tag, last_addr, stride, confidence) ->
      let e = t.table.(i) in
      e.tag <- tag;
      e.last_addr <- last_addr;
      e.stride <- stride;
      e.confidence <- confidence)
    p.p_table;
  t.stats.issued <- p.p_issued;
  t.stats.triggered <- p.p_triggered
