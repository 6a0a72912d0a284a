type when_ = At_quiescence | Always

type probe = { p_name : string; p_when : when_; p_fn : unit -> string list }
type violation = { v_probe : string; v_detail : string }

type t = {
  mutable probes : probe list;  (** registration order *)
  mutable violations : violation list;  (** reversed *)
  seen : (string * string, unit) Hashtbl.t;
      (** an Always probe re-fires every interval; report each distinct
          (probe, detail) once *)
  mutable checks : int;
}

let create () =
  { probes = []; violations = []; seen = Hashtbl.create 16; checks = 0 }

let register t ~name ~when_ fn =
  t.probes <- t.probes @ [ { p_name = name; p_when = when_; p_fn = fn } ]

let run_probe t p =
  List.iter
    (fun detail ->
      if not (Hashtbl.mem t.seen (p.p_name, detail)) then begin
        Hashtbl.add t.seen (p.p_name, detail) ();
        t.violations <- { v_probe = p.p_name; v_detail = detail } :: t.violations
      end)
    (p.p_fn ())

let check_always t =
  t.checks <- t.checks + 1;
  List.iter (fun p -> if p.p_when = Always then run_probe t p) t.probes

(* Quiescence is the strongest observation point: every probe holds. *)
let check_quiescent t =
  t.checks <- t.checks + 1;
  List.iter (run_probe t) t.probes

let violations t = List.rev t.violations
let checks t = t.checks

let attach_periodic t machine ~interval_ns =
  if interval_ns <= 0 then invalid_arg "Monitor.attach_periodic: interval";
  let rec arm time =
    Machine.Engine.schedule_at machine ~time (fun () ->
        check_always t;
        (* Stop re-arming once the machine quiesces, or Engine.run would
           never drain its event queue. *)
        if not (Machine.Engine.quiescent machine) then arm (time + interval_ns))
  in
  arm interval_ns

