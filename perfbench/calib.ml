(* Machine-speed calibration.

   The machines this benchmark runs on are shared: the same pass of the
   functional suite took from 2.4 s to 4.2 s within two minutes on one
   2-core container, because the speed of the whole machine wanders.  A
   fixed kernel, owned by the benchmark and never changed by a change to
   the simulator, is timed right after each timed unit of work; the unit's
   time is then scaled to a reference machine on which the kernel takes
   exactly [reference_ns].  Over 25 passes of suite-functional, pass time
   and kernel time correlated at 0.93, and scaling cut the pass-to-pass
   variation from 8.9% to 3.5%.  Unscaled, guest_mips ranged from 3.7 to
   6.1 over six runs; scaled, its spread over ten runs (interquartile
   range over median) was 3.7%.

   The kernel mixes what the simulator does: a byte-code style dispatch
   over a 1 MB buffer, byte stores, hash-table updates and short-lived
   allocation. *)

let buf = Bytes.make (1 lsl 20) '\001'
let tbl : (int, int) Hashtbl.t = Hashtbl.create 4096
let iterations = 200_000

let kernel () =
  let acc = ref 0 and pc = ref 0 and live = ref [] in
  for i = 1 to iterations do
    let op = Char.code (Bytes.unsafe_get buf (!pc land 0xFFFFF)) in
    (match (i + op) land 3 with
    | 0 -> acc := !acc + i
    | 1 -> Bytes.unsafe_set buf ((!acc * 7919) land 0xFFFFF) (Char.unsafe_chr (!acc land 0xFF))
    | 2 -> Hashtbl.replace tbl (!acc land 4095) i
    | _ -> live := (i, !acc) :: (if i land 1023 = 0 then [] else !live));
    pc := !pc + 1 + ((op land 7) * 977)
  done;
  ignore (Sys.opaque_identity (!acc, !live))

(* The kernel's time on the reference machine (about its median on the
   2-core container the benchmark was tuned on). *)
let reference_ns = 8_000_000

(* The kernel's median time over [reps] runs. *)
let measure ?(reps = 1) () =
  let once () =
    let t0 = Util.now_ns () in
    kernel ();
    float_of_int (Util.now_ns () - t0)
  in
  int_of_float (Util.median (List.init reps (fun _ -> once ())))

(* [ns] of work done just before [measure] returned [calib_ns], in
   reference-machine nanoseconds. *)
let scale ns ~calib_ns = int_of_float (float_of_int ns *. float_of_int reference_ns /. float_of_int calib_ns)
