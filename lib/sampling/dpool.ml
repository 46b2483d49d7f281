type 'b t = {
  lock : Mutex.t;
  work_ready : Condition.t;
  done_ready : Condition.t;
  queue : (int * (unit -> 'b)) Queue.t;
  completions : (int * ('b, exn) result) Queue.t;
  mutable submitted : int;
  mutable delivered : int;
  mutable stopping : bool;
  mutable domains : unit Domain.t array;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  njobs : int;
  nsize : int;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* One byte per completion.  The write end is non-blocking: a full pipe
   means the read end is already screaming "readable", which is all a
   wakeup has to guarantee. *)
let ring t =
  try ignore (Unix.write_substring t.wake_w "!" 0 1)
  with Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()

(* Drain every buffered wake byte.  Done BEFORE popping: a completion
   pushed after the drain rings again, so the fd is readable whenever a
   completion might be waiting — spurious wakeups possible, missed ones
   not. *)
let drain_all t =
  let b = Bytes.create 64 in
  let rec go () =
    match Unix.read t.wake_r b 0 64 with
    | n -> if n = 64 then go ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  in
  go ()

let worker t () =
  let rec loop () =
    Mutex.lock t.lock;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.work_ready t.lock
    done;
    if t.stopping then Mutex.unlock t.lock
    else begin
      let tag, thunk = Queue.pop t.queue in
      Mutex.unlock t.lock;
      let result = try Ok (thunk ()) with e -> Error e in
      locked t (fun () ->
          Queue.push (tag, result) t.completions;
          Condition.signal t.done_ready);
      ring t;
      loop ()
    end
  in
  loop ()

let create ~jobs () =
  if jobs < 1 then invalid_arg "Dpool.create: jobs must be >= 1";
  (* Never spawn more compute domains than the runtime recommends:
     domains share stop-the-world minor collections, so oversubscribing
     cores turns every minor GC into a scheduling stampede (measured 3x
     slower on a single-core host).  Worker processes have no such
     coupling — the kernel time-slices them fine — so only the domain pool
     clamps.
     The queue absorbs the difference; callers still get [jobs]-deep
     admission. *)
  let size = max 1 (min jobs (Domain.recommended_domain_count ())) in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_w;
  Unix.set_nonblock wake_r;
  let t =
    {
      lock = Mutex.create ();
      work_ready = Condition.create ();
      done_ready = Condition.create ();
      queue = Queue.create ();
      completions = Queue.create ();
      submitted = 0;
      delivered = 0;
      stopping = false;
      domains = [||];
      wake_r;
      wake_w;
      njobs = jobs;
      nsize = size;
    }
  in
  t.domains <- Array.init size (fun _ -> Domain.spawn (worker t));
  t

let jobs t = t.njobs
let size t = t.nsize

let submit t ~tag thunk =
  locked t (fun () ->
      if t.stopping then invalid_arg "Dpool.submit: pool is shut down";
      Queue.push (tag, thunk) t.queue;
      t.submitted <- t.submitted + 1;
      Condition.signal t.work_ready)

let pending t = locked t (fun () -> t.submitted - t.delivered)

let pop_locked t =
  match Queue.take_opt t.completions with
  | None -> None
  | Some c ->
    t.delivered <- t.delivered + 1;
    Some c

let try_next t =
  drain_all t;
  locked t (fun () -> pop_locked t)

let await t =
  drain_all t;
  locked t (fun () ->
      let rec wait () =
        match pop_locked t with
        | Some c -> c
        | None ->
          if t.delivered = t.submitted then
            invalid_arg "Dpool.await: nothing pending";
          Condition.wait t.done_ready t.lock;
          wait ()
      in
      wait ())

let wake_fd t = t.wake_r

let shutdown t =
  let doms =
    locked t (fun () ->
        if t.stopping then [||]
        else begin
          t.stopping <- true;
          Queue.clear t.queue;
          Condition.broadcast t.work_ready;
          let d = t.domains in
          t.domains <- [||];
          d
        end)
  in
  if Array.length doms > 0 then begin
    Array.iter Domain.join doms;
    (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
    try Unix.close t.wake_w with Unix.Unix_error _ -> ()
  end
