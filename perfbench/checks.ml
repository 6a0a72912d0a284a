(* Output checks. Each returns one line per problem; an empty list is a
   pass. The bench exits nonzero when any check reports a problem. *)

(* Fixed counts of the closed queens computation (N=11, 64 nodes). The
   remote-creation count depends on the node the root starts on; these
   are the pinned counts for roots on nodes 0-7. Tests pass wrong values
   to show that the check fires. *)
type expect = { solutions : int; remote_creations : int }

let remote_creations_by_root =
  [| 164_351; 164_348; 164_345; 164_345; 164_350; 164_348; 164_349; 164_350 |]

let queens_roots = Array.length remote_creations_by_root

let expect ~root =
  { solutions = 2_680; remote_creations = remote_creations_by_root.(root) }

let queens ~expect ~solutions ~remote_creations =
  (if solutions <> expect.solutions then
     [
       Printf.sprintf "queens: %d solutions, expected %d" solutions
         expect.solutions;
     ]
   else [])
  @
  if remote_creations <> expect.remote_creations then
    [
      Printf.sprintf "queens: %d remote creations, expected %d" remote_creations
        expect.remote_creations;
    ]
  else []

let audits lines = List.map (fun l -> "audit: " ^ l) lines

let diagnostics report =
  if Core.Diagnostics.is_clean report then []
  else
    [ Format.asprintf "diagnostics not clean: %a" Core.Diagnostics.pp report ]

let in_flight n =
  if n <> 0 then
    [ Printf.sprintf "reliable: %d messages still in flight at quiescence" n ]
  else []

(* Repeats of one workload and seed must simulate the same computation. *)
let digests = function
  | [] -> []
  | d :: rest ->
      List.filter_map
        (fun d' ->
          if d' = d then None
          else
            Some (Printf.sprintf "digest: repeat gave %s, first run %s" d' d))
        rest
