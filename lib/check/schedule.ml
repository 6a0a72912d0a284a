(* A schedule is a choice sequence (Hypothesis-style): the value drawn
   at every decision point the simulator exposes, in the order the run
   consumed them. Record mode draws fresh values from a seeded RNG and
   logs them; replay mode feeds a stored vector back, so the same vector
   is the same run. Everything downstream (shrinking, regression files)
   manipulates plain int vectors. *)

type mode = Record of Simcore.Rng.t | Replay of int array

type t = {
  mode : mode;
  mutable trace : int list;  (** reversed *)
  mutable used : int;
}

let record ~seed = { mode = Record (Simcore.Rng.create ~seed); trace = []; used = 0 }
let replay vector = { mode = Replay vector; trace = []; used = 0 }

let choice t ~tag:_ n =
  if n <= 0 then invalid_arg "Schedule.choice: empty domain";
  let v =
    match t.mode with
    | Record rng -> Simcore.Rng.int rng n
    | Replay vec ->
        (* Past the end of the vector every choice is 0, the baseline —
           which is what makes truncation a valid shrink step. A stored
           value from a run whose domain differed is clamped into range. *)
        if t.used < Array.length vec then vec.(t.used) mod n else 0
  in
  t.trace <- v :: t.trace;
  t.used <- t.used + 1;
  v

let trace t = Array.of_list (List.rev t.trace)
let used t = t.used
