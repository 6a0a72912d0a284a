(* Tests for the post-run residue diagnostics. *)

open Core

let p_go = Pattern.intern "td_go" ~arity:0
let p_never = Pattern.intern "td_never" ~arity:0
let p_noise = Pattern.intern "td_noise" ~arity:0

let test_clean_after_complete_run () =
  let cls =
    Class_def.define ~name:"td_ok" ~methods:[ (p_go, fun _ _ -> ()) ] ()
  in
  let sys = System.boot ~nodes:2 ~classes:[ cls ] () in
  let a = System.create_root sys ~node:0 cls [] in
  System.send_boot sys a p_go [];
  System.run sys;
  let r = Diagnostics.survey sys in
  Alcotest.(check bool) "clean" true (Diagnostics.is_clean r);
  Alcotest.(check string) "pp" "clean: no residual work"
    (Format.asprintf "%a" Diagnostics.pp r)

let test_orphan_selective_wait () =
  let cls =
    Class_def.define ~name:"td_waiter"
      ~methods:
        [
          ( p_go,
            fun ctx _ ->
              (* Waits for a message nobody ever sends. *)
              ignore (Ctx.wait_for ctx [ p_never ]) );
          (p_noise, fun _ _ -> ());
        ]
      ()
  in
  let sys = System.boot ~nodes:1 ~classes:[ cls ] () in
  let a = System.create_root sys ~node:0 cls [] in
  System.send_boot sys a p_go [];
  (* A non-awaited message gets buffered behind the wait forever. *)
  System.send_boot sys a p_noise [];
  System.run sys;
  let r = Diagnostics.survey sys in
  Alcotest.(check bool) "not clean" false (Diagnostics.is_clean r);
  match r.Diagnostics.blocked with
  | [ stuck ] ->
      Alcotest.(check string) "who" "td_waiter" stuck.Diagnostics.cls_name;
      Alcotest.(check string) "mode" "waiting" stuck.mode;
      Alcotest.(check (option string)) "why" (Some "messages [td_never]")
        stuck.waiting_for;
      Alcotest.(check int) "noise still buffered" 1 stuck.queued_messages
  | other ->
      Alcotest.failf "expected exactly one blocked object, got %d"
        (List.length other)

let test_orphan_now_wait () =
  let black_hole =
    (* Accepts the request but never replies. *)
    Class_def.define ~name:"td_hole" ~methods:[ (p_never, fun _ _ -> ()) ] ()
  in
  let hole_ref = ref Value.unit in
  let cls =
    Class_def.define ~name:"td_asker"
      ~methods:
        [
          ( p_go,
            fun ctx _ ->
              ignore (Ctx.send_now ctx (Value.to_addr !hole_ref) p_never []) );
        ]
      ()
  in
  let sys = System.boot ~nodes:2 ~classes:[ black_hole; cls ] () in
  let hole = System.create_root sys ~node:1 black_hole [] in
  hole_ref := Value.addr hole;
  let a = System.create_root sys ~node:0 cls [] in
  System.send_boot sys a p_go [];
  System.run sys;
  let r = Diagnostics.survey sys in
  match r.Diagnostics.blocked with
  | [ stuck ] ->
      (* Attributed to the suspended asker, not the reply destination. *)
      Alcotest.(check string) "who" "td_asker" stuck.Diagnostics.cls_name;
      Alcotest.(check bool) "why mentions reply" true
        (match stuck.waiting_for with
        | Some s -> String.length s > 0 && String.sub s 0 10 = "a now-type"
        | None -> false)
  | other ->
      Alcotest.failf "expected one blocked object, got %d" (List.length other)

let test_buffered_residue () =
  (* Messages left in the queue of an object that is waiting: counted as
     part of the blocked entry; messages to a *retired-like* quiescent
     object appear as buffered residue. Simplest case: fault-table embryo
     that never gets its creation request. *)
  let sys = System.boot ~nodes:2 ~classes:[] () in
  let machine = System.machine sys in
  let rt0 = System.rt sys 0 in
  let node0 = Machine.Engine.node machine 0 in
  let slot = Queue.take rt0.Kernel.stocks.(1) in
  let msg = Message.make ~pattern:p_noise ~args:[] ~src_node:0 () in
  Machine.Engine.post machine node0 (fun () ->
      Machine.Engine.send_am machine ~src:node0 ~dst:1
        ~handler:rt0.Kernel.shared.Kernel.h_obj_msg
        ~size_bytes:(Protocol.obj_msg_bytes msg)
        (Protocol.P_obj_msg { slot; msg }));
  System.run sys;
  let r = Diagnostics.survey sys in
  match r.Diagnostics.buffered with
  | [ stuck ] ->
      Alcotest.(check string) "embryo" "<chunk>" stuck.Diagnostics.cls_name;
      Alcotest.(check string) "fault table" "fault" stuck.mode;
      Alcotest.(check int) "one buffered" 1 stuck.queued_messages;
      Alcotest.(check bool) "pp mentions it" true
        (String.length (Format.asprintf "%a" Diagnostics.pp r) > 0)
  | other ->
      Alcotest.failf "expected one buffered object, got %d" (List.length other)

(* The survey must flag a node whose invocation bookkeeping did not
   return to zero. The test-only hook makes a finishing method leave its
   activation entry behind, the bug the check exists to catch. *)
let test_unbalanced_activation () =
  let cls =
    Class_def.define ~name:"td_leaky" ~methods:[ (p_go, fun _ _ -> ()) ] ()
  in
  let sys = System.boot ~nodes:2 ~classes:[ cls ] () in
  let a = System.create_root sys ~node:1 cls [] in
  System.send_boot sys a p_go [];
  Sched.unsafe_leak_activation := true;
  Fun.protect
    ~finally:(fun () -> Sched.unsafe_leak_activation := false)
    (fun () -> System.run sys);
  let r = Diagnostics.survey sys in
  Alcotest.(check (list (triple int int int)))
    "node 1 left one activation open" [ (1, 0, 1) ] r.Diagnostics.unbalanced;
  Alcotest.(check bool) "not clean" false (Diagnostics.is_clean r);
  Alcotest.(check string) "reported"
    "node 1 left at stack depth 0 with 1 activation(s) open\n"
    (Format.asprintf "%a" Diagnostics.pp r)

let () =
  Alcotest.run "diagnostics"
    [
      ( "residue",
        [
          Alcotest.test_case "clean run" `Quick test_clean_after_complete_run;
          Alcotest.test_case "orphan selective wait" `Quick
            test_orphan_selective_wait;
          Alcotest.test_case "orphan now-type wait" `Quick test_orphan_now_wait;
          Alcotest.test_case "buffered residue" `Quick test_buffered_residue;
          Alcotest.test_case "unbalanced activation stack" `Quick
            test_unbalanced_activation;
        ] );
    ]
