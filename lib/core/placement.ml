open Mcl_netlist

type row_store = { mutable arr : int array; mutable len : int }

type t = {
  design : Design.t;
  rows : row_store array;
  registered : bool array;
}

let create design =
  { design;
    rows =
      Array.init design.Design.floorplan.Floorplan.num_rows (fun _ ->
          { arr = Array.make 8 (-1); len = 0 });
    registered = Array.make (Design.num_cells design) false }

let cell_x t id = t.design.Design.cells.(id).Cell.x

let find_pos t row x id =
  (* first index whose cell sorts after (x, id) *)
  let store = t.rows.(row) in
  let lo = ref 0 and hi = ref store.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let c = store.arr.(mid) in
    if (cell_x t c, c) < (x, id) then lo := mid + 1 else hi := mid
  done;
  !lo

let row_insert t row id =
  let store = t.rows.(row) in
  if store.len = Array.length store.arr then begin
    let bigger = Array.make (2 * store.len) (-1) in
    Array.blit store.arr 0 bigger 0 store.len;
    store.arr <- bigger
  end;
  let pos = find_pos t row (cell_x t id) id in
  Array.blit store.arr pos store.arr (pos + 1) (store.len - pos);
  store.arr.(pos) <- id;
  store.len <- store.len + 1

let row_remove t row id =
  let store = t.rows.(row) in
  (* fast path: if x is unchanged since insertion, the binary-search
     position is exact; a caller that moved the cell before removing it
     falls back to the linear scan *)
  let pos =
    let p = find_pos t row (cell_x t id) id in
    if p < store.len && store.arr.(p) = id then p
    else begin
      let rec find i =
        if i >= store.len then invalid_arg "Placement.remove: cell not in row"
        else if store.arr.(i) = id then i
        else find (i + 1)
      in
      find 0
    end
  in
  Array.blit store.arr (pos + 1) store.arr pos (store.len - pos - 1);
  store.len <- store.len - 1

let cell_rows t id =
  let c = t.design.Design.cells.(id) in
  let h = Design.height t.design c in
  (c.Cell.y, c.Cell.y + h - 1)

let add t id =
  if t.registered.(id) then invalid_arg "Placement.add: already registered";
  let lo, hi = cell_rows t id in
  for row = lo to hi do
    row_insert t row id
  done;
  t.registered.(id) <- true

let remove t id =
  if not t.registered.(id) then invalid_arg "Placement.remove: not registered";
  let lo, hi = cell_rows t id in
  for row = lo to hi do
    row_remove t row id
  done;
  t.registered.(id) <- false

let mem t id = t.registered.(id)

let of_design design =
  let t = create design in
  Array.iter (fun (c : Cell.t) -> add t c.id) design.Design.cells;
  t

let row_cells t row =
  let store = t.rows.(row) in
  (store.arr, store.len)

(* K-way merge of per-shard occupancies into one structure. Each part
   row is already (x, id)-sorted, so a pointer-per-part merge emits the
   union in order; a cell registered in several parts (fixed cells are
   obstacles everywhere) collapses to one entry because its duplicate
   keys are adjacent in the merge. *)
let merge design parts =
  let t = create design in
  Array.iter
    (fun (p : t) ->
       if p.design != design then
         invalid_arg "Placement.merge: parts built for another design")
    parts;
  let n_parts = Array.length parts in
  let idx = Array.make n_parts 0 in
  for row = 0 to Array.length t.rows - 1 do
    Array.fill idx 0 n_parts 0;
    let store = t.rows.(row) in
    let total = ref 0 in
    Array.iter (fun p -> total := !total + p.rows.(row).len) parts;
    if Array.length store.arr < !total then
      store.arr <- Array.make !total (-1);
    let head p =
      let ps = parts.(p).rows.(row) in
      if idx.(p) < ps.len then Some ps.arr.(idx.(p)) else None
    in
    let last = ref (-1) in
    let continue_ = ref true in
    while !continue_ do
      let best = ref (-1) and best_key = ref (max_int, max_int) in
      for p = 0 to n_parts - 1 do
        match head p with
        | None -> ()
        | Some id ->
          let key = (cell_x t id, id) in
          if !best = -1 || key < !best_key then begin
            best := p;
            best_key := key
          end
      done;
      match !best with
      | -1 -> continue_ := false
      | p ->
        let id = parts.(p).rows.(row).arr.(idx.(p)) in
        idx.(p) <- idx.(p) + 1;
        if id <> !last then begin
          store.arr.(store.len) <- id;
          store.len <- store.len + 1;
          last := id
        end
    done
  done;
  Array.iter
    (fun (p : t) ->
       Array.iteri
         (fun id r -> if r then t.registered.(id) <- true)
         p.registered)
    parts;
  t

(* first index of [row] whose cell has x >= [x] *)
let lower_bound t row x =
  let store = t.rows.(row) in
  let lo = ref 0 and hi = ref store.len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if cell_x t store.arr.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let x_range t ~row ~lo ~hi =
  let first = lower_bound t row lo in
  (first, max first (lower_bound t row (hi + 1)))

let well_formed t =
  let ok = ref true in
  Array.iter
    (fun store ->
       for i = 0 to store.len - 2 do
         let a = store.arr.(i) and b = store.arr.(i + 1) in
         let ca = t.design.Design.cells.(a) in
         let wa = Design.width t.design ca in
         if ca.Cell.x + wa > t.design.Design.cells.(b).Cell.x then ok := false
       done)
    t.rows;
  !ok
