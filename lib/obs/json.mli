(** A minimal self-contained JSON representation.

    The telemetry sinks (JSONL traces) and the benchmark harness
    (machine-readable [BENCH_*.json] documents) need to emit — and the
    tests and the bench [validate] mode need to re-read — small JSON
    documents.  The container has no JSON library baked in, so this
    module provides the few hundred lines needed: a value type, a
    serializer whose output is always valid JSON (non-finite floats
    become [null]), and a strict recursive-descent parser.

    Not a general-purpose JSON library: numbers outside the int/float
    ranges, duplicate object keys, and exotic encodings are out of
    scope. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Serialize compactly (no insignificant whitespace).  Strings are
    escaped per RFC 8259; control characters use [\uXXXX]; non-finite
    floats serialize as [null]. *)

val to_buffer : Buffer.t -> t -> unit

val of_string : string -> (t, string) result
(** Strict parse of a complete JSON document (trailing whitespace
    allowed, trailing garbage is an error).  Numbers with a fraction or
    exponent parse as [Float], others as [Int] (falling back to [Float]
    on overflow).  [\uXXXX] escapes are decoded to UTF-8, including
    surrogate pairs. *)

val of_string_exn : string -> t
(** @raise Invalid_argument on parse errors. *)

(** {1 Accessors} — shallow, total; [None] on shape mismatch. *)

val member : string -> t -> t option
(** [member key json] is the value bound to [key] when [json] is an
    [Obj] containing it. *)

val as_string : t -> string option
val as_int : t -> int option
val as_float : t -> float option
(** [as_float] also accepts [Int] values. *)

val as_list : t -> t list option
val as_obj : t -> (string * t) list option
