(** Tunables shared by the TCP sublayers (and the monolithic baseline). *)

type isn_choice = Clock | Hashed of int | Counter of int

type t = {
  mss : int;                 (** maximum segment (payload) size, bytes *)
  rcv_buf : int;             (** receive buffer = advertised window cap *)
  rto_init : float;
  rto_min : float;
  rto_max : float;
  syn_rto : float;           (** CM's bootstrap retransmission timeout *)
  syn_retries : int;
  fin_retries : int;
  msl : float;               (** TIME_WAIT lasts 2 × msl *)
  max_retries : int;
      (** consecutive RTO firings without cumulative progress before RD
          gives up and aborts the connection *)
  give_up_after : float;
      (** seconds without cumulative progress on outstanding data before
          RD aborts (ETIMEDOUT semantics); [infinity] disables *)
  dupack_threshold : int;
  nagle : bool;          (** coalesce sub-MSS writes while data is in flight *)
  delayed_ack : bool;    (** ack every second segment or after [ack_delay] *)
  ack_delay : float;
  cc : Cc.algo;
  isn : isn_choice;
}

val default : t
(** 1000-byte MSS, 64 KB buffer, Reno, hashed ISNs; Nagle and delayed
    acks off (the E16 ablation bench turns them on). *)

val make_isn : t -> Sim.Engine.t -> Isn.t
