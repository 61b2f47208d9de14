type isn_choice = Clock | Hashed of int | Counter of int

type t = {
  mss : int;
  rcv_buf : int;
  rto_init : float;
  rto_min : float;
  rto_max : float;
  syn_rto : float;
  syn_retries : int;
  fin_retries : int;
  msl : float;
  max_retries : int;
  give_up_after : float;
  dupack_threshold : int;
  nagle : bool;
  delayed_ack : bool;
  ack_delay : float;
  cc : Cc.algo;
  isn : isn_choice;
}

let default =
  {
    mss = 1000;
    rcv_buf = 64 * 1024;
    rto_init = 0.2;
    rto_min = 0.05;
    rto_max = 5.0;
    syn_rto = 0.2;
    syn_retries = 8;
    fin_retries = 8;
    msl = 2.0;
    max_retries = 12;
    give_up_after = 60.0;
    dupack_threshold = 3;
    nagle = false;
    delayed_ack = false;
    ack_delay = 0.04;
    cc = Cc.reno;
    isn = Hashed 0x5eed;
  }

let make_isn t engine =
  match t.isn with
  | Clock -> Isn.clock engine
  | Hashed secret -> Isn.hashed engine ~secret
  | Counter start -> Isn.counter ~start ()
