(* The traced run's layer attribution. Each engine step is charged, whole,
   to the highest-priority event family it emitted; a step that emitted
   none of the families below ran only an MVM quantum and the scheduler,
   and is charged to [Sched]. The benchmark's own [Cluster.spawn] calls
   are charged to [Spawn], which no event maps to. Layers are named after
   the library modules that emit the events. *)

module Event = Pm2_obs.Event

type layer =
  | Migration
  | Delta
  | Negotiation
  | Slots
  | Heap
  | Net
  | Sched
  | Spawn

let all = [ Migration; Delta; Negotiation; Slots; Heap; Net; Sched; Spawn ]

let name = function
  | Migration -> "migration"
  | Delta -> "delta"
  | Negotiation -> "negotiation"
  | Slots -> "slots"
  | Heap -> "heap"
  | Net -> "net"
  | Sched -> "sched"
  | Spawn -> "spawn"

let index = function
  | Migration -> 0
  | Delta -> 1
  | Negotiation -> 2
  | Slots -> 3
  | Heap -> 4
  | Net -> 5
  | Sched -> 6
  | Spawn -> 7

(* The family of one event; [Sched] for events outside every family
   (guest output, spans, recovery, node life cycle). *)
let of_event : Event.t -> layer = function
  | Pack_slot _ | Unpack_slot _ | Migration_phase _ | Migration_abort _
  | Migration_rollback _ | Group_migration_start _ | Group_migration_phase _
  | Group_migration_commit _ | Group_migration_abort _ ->
    Migration
  | Delta_hit _ | Delta_miss _ | Delta_evict _ | Delta_invalidate _ -> Delta
  | Neg_request _ | Neg_round _ | Neg_grant _ | Neg_deny _ | Neg_abort _ -> Negotiation
  | Slot_reserve _ | Slot_release _ | Slot_transfer _ -> Slots
  | Block_alloc { heap; _ } | Block_free { heap; _ } | Block_split { heap; _ }
  | Block_coalesce { heap; _ } ->
    (match heap with Iso -> Slots | Local -> Heap)
  | Packet_send _ | Packet_deliver _ | Train_send _ | Train_retransmit _ | Train_ack _
  | Net_retransmit _ | Net_dup_suppress _ | Net_give_up _ | Fault_inject _ ->
    Net
  | Span_end _ | Thread_printf _ | Node_kill _ | Node_restart _ | Node_crash _
  | Node_suspected _ | Node_dead _ | Checkpoint _ | Thread_restore _ | Thread_lost _ ->
    Sched

(* The higher-priority of two layers (lower index wins). *)
let max_priority a b = if index a <= index b then a else b

(* Classification of one step from the events it emitted, in order. *)
let of_step events = List.fold_left (fun acc ev -> max_priority acc (of_event ev)) Sched events
