(** Plain FIFO tail-drop queue — the default router buffer in the paper's
    SACK/Droptail, Vegas and PERT configurations. *)

val create : limit_pkts:int -> Queue_disc.t
(** [create ~limit_pkts] rejects arrivals once [limit_pkts] packets are
    buffered. *)
