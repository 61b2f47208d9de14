type 'a t = {
  l_id : string;
  l_mtu : int option;
  l_cost : float;
  mutable tx : ('a -> unit) option;
  mutable rx : ('a -> unit) option;
  mutable close_hook : (unit -> unit) option;
  mutable dead : bool;
  mutable death_subs : (unit -> unit) list;
  mutable n_tx : int;
  mutable n_rx : int;
  mutable n_dropped : int;
}

let make ?(id = "link") ?mtu ?(cost = 1.) ?close ?transmit () =
  {
    l_id = id;
    l_mtu = mtu;
    l_cost = cost;
    tx = transmit;
    rx = None;
    close_hook = close;
    dead = false;
    death_subs = [];
    n_tx = 0;
    n_rx = 0;
    n_dropped = 0;
  }

let id t = t.l_id
let mtu t = t.l_mtu
let cost t = t.l_cost
let set_transmit t f = t.tx <- Some f
let attach t f = t.rx <- Some f

let transmit t x =
  match t.tx with
  | Some f when not t.dead ->
      t.n_tx <- t.n_tx + 1;
      f x
  | _ -> t.n_dropped <- t.n_dropped + 1

let deliver t x =
  match t.rx with
  | Some f when not t.dead ->
      t.n_rx <- t.n_rx + 1;
      f x
  | _ -> t.n_dropped <- t.n_dropped + 1

let alive t = not t.dead

let kill t =
  if not t.dead then begin
    t.dead <- true;
    let subs = List.rev t.death_subs in
    t.death_subs <- [];
    List.iter (fun f -> f ()) subs
  end

let on_death t f = if t.dead then f () else t.death_subs <- f :: t.death_subs

let close t =
  match t.close_hook with
  | Some f when not t.dead -> f ()
  | _ -> kill t

type stats = { tx : int; rx : int; dropped : int }

let stats t = { tx = t.n_tx; rx = t.n_rx; dropped = t.n_dropped }
let transmitted t = t.n_tx
