(** A unidirectional point-to-point link.

    Models one Myrinet cable direction: 160 MB/s serialisation, fixed
    propagation delay, FIFO ordering, and optional fault injection
    (packet drop, payload corruption and duplication with configured
    probabilities). Packets serialise back-to-back: a packet offered
    while the link is still transmitting queues behind it.

    A VMMC cluster sets one fault model for all its links through
    [Cluster.config.faults]; the [--faults] plan of the translation
    engines does not reach the network. *)

type t

type fault_model = {
  drop_probability : float;
  corrupt_probability : float;
  duplicate_probability : float;
      (** Probability a delivered packet is delivered twice: the copy
          re-serialises back-to-back behind the original. Receivers
          are expected to drop replays by sequence number. *)
}

val no_faults : fault_model

val fault_model_active : fault_model -> bool
(** True when any probability is non-zero (an rng is then required). *)

val create :
  ?bandwidth_mb_per_s:float ->
  ?latency_us:float ->
  ?faults:fault_model ->
  ?rng:Utlb_sim.Rng.t ->
  sink:(Packet.t -> unit) ->
  Utlb_sim.Engine.t ->
  t
(** Defaults: 160 MB/s, 0.5 µs propagation, no faults. [rng] is required
    when [faults] has non-zero probabilities.
    @raise Invalid_argument on a faulty model without an rng. *)

val transmit : t -> Packet.t -> unit
(** Offer a packet for transmission. Delivery (or silent drop) happens
    after serialisation + propagation. *)

val transmitted : t -> int

val delivered : t -> int

val dropped : t -> int

val corrupted : t -> int

val duplicated : t -> int

val bytes_sent : t -> int
