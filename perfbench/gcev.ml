(* GC pause accounting from Runtime_events (ships with OCaml 5): a
   pause runs from the outermost begin to the matching end of a minor
   collection or major slice on one domain.  Only pauses that end while
   [counting] is set are added, so the caller can confine the totals to
   untraced ops by polling before and after each op. *)

let cursor = ref None
let depth : (int, int * int) Hashtbl.t = Hashtbl.create 4  (* dom -> depth, start *)
let total_ns = ref 0
let max_ns = ref 0
let lost = ref 0
let counting = ref false

let is_pause = function
  | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE -> true
  | _ -> false

let ts t = Int64.to_int (Runtime_events.Timestamp.to_int64 t)

let callbacks =
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun dom t ph ->
      if is_pause ph then
        match Hashtbl.find_opt depth dom with
        | Some (d, s) when d > 0 -> Hashtbl.replace depth dom (d + 1, s)
        | _ -> Hashtbl.replace depth dom (1, ts t))
    ~runtime_end:(fun dom t ph ->
      if is_pause ph then
        match Hashtbl.find_opt depth dom with
        | Some (1, s) ->
            Hashtbl.replace depth dom (0, 0);
            let d = ts t - s in
            if !counting then begin
              total_ns := !total_ns + d;
              if d > !max_ns then max_ns := d
            end
        | Some (d, s) when d > 1 -> Hashtbl.replace depth dom (d - 1, s)
        | _ -> ())
    ~lost_events:(fun _ n -> lost := !lost + n)
    ()

let start () =
  Runtime_events.start ();
  cursor := Some (Runtime_events.create_cursor None)

let poll () =
  match !cursor with
  | Some c -> ignore (Runtime_events.read_poll c callbacks None)
  | None -> ()

let reset () =
  poll ();
  total_ns := 0;
  max_ns := 0;
  lost := 0
