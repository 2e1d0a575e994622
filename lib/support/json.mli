(** The one JSON codec: the analysis server's wire frames and
    journal, and the telemetry exports (Chrome traces, flight dumps,
    the metrics JSON snapshot, the bench baseline and [tracecat]).

    It is hardened for adversarial network input: payloads are
    rejected unless they are well-formed UTF-8, nesting depth is
    bounded, trailing garbage after the value is an error, and
    printing is deterministic — the same value always renders to the
    same bytes, which is what lets journalled responses replay
    byte-identically across server restarts. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Error of string
(** Raised by {!parse} on malformed input. Never escapes
    {!parse_result}. *)

val utf8_valid : string -> bool
(** Exactly RFC 3629 well-formedness: no overlong encodings, no
    surrogate code points, nothing above U+10FFFF. *)

val parse : string -> t
(** Parse one complete JSON value. Raises {!Error} on invalid UTF-8,
    malformed syntax, nesting deeper than 128, or trailing bytes. *)

val parse_result : string -> (t, string) result
(** {!parse} with the exception reified. *)

val to_string : t -> string
(** Deterministic printer: no whitespace, object keys in insertion
    order, integral numbers printed without a fractional part. *)

val escape_lossy_into : Buffer.t -> string -> unit
(** [escape_lossy_into b s] appends the body of a JSON string literal
    (no quotes) for [s], escaped exactly as {!to_string} escapes it:
    quote, backslash, newline, carriage return and tab get their short
    escapes, other control bytes a [u00XX] escape, well-formed UTF-8
    is copied. Unlike {!to_string}, each ill-formed UTF-8 sequence is
    written as U+FFFD, so the output is always valid JSON. The
    telemetry writers (trace, flight recorder, metrics) stream JSON
    with this: their strings come from program input such as file
    names, which need not be UTF-8. *)

val member : string -> t -> t option
(** First binding of a key in an object; [None] for non-objects. *)

val str_member : string -> t -> string option
val int_member : string -> t -> int option
val bool_member : string -> t -> bool option

val set_member : string -> t -> t -> t
(** [set_member k v obj] replaces the binding of [k] (or appends one).
    Non-objects are returned unchanged. *)
