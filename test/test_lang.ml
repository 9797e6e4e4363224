(* Tests for the minicuda surface language: lexer, parser/elaborator,
   pragmas, and end-to-end execution of parsed kernels. *)

let t name f = Alcotest.test_case name `Quick f
let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

let tokens src = List.map fst (Minicuda.Lexer.tokenize src)

let lexer_tests =
  [
    t "keywords, identifiers and punctuation" (fun () ->
        check_b "tokens" true
          (tokens "kernel f ( ) { }"
          = Minicuda.Token.[ KERNEL; IDENT "f"; LPAREN; RPAREN; LBRACE; RBRACE; EOF ]));
    t "numbers: ints, floats, suffixes, exponents" (fun () ->
        check_b "int" true (tokens "42" = Minicuda.Token.[ INT_LIT 42; EOF ]);
        check_b "float" true (tokens "1.5" = Minicuda.Token.[ FLOAT_LIT 1.5; EOF ]);
        check_b "f suffix" true (tokens "2f" = Minicuda.Token.[ FLOAT_LIT 2.0; EOF ]);
        check_b "exponent" true (tokens "1e3" = Minicuda.Token.[ FLOAT_LIT 1000.0; EOF ]));
    t "two-char operators" (fun () ->
        check_b "ops" true
          (tokens "<= == != += && ||"
          = Minicuda.Token.[ LE; EQEQ; NEQ; PLUS_EQ; ANDAND; OROR; EOF ]));
    t "comments are skipped" (fun () ->
        check_b "line" true (tokens "a // comment\n b" = Minicuda.Token.[ IDENT "a"; IDENT "b"; EOF ]);
        check_b "block" true (tokens "a /* x\ny */ b" = Minicuda.Token.[ IDENT "a"; IDENT "b"; EOF ]));
    t "pragmas become tokens" (fun () ->
        check_b "unroll n" true (tokens "#pragma unroll 4" = Minicuda.Token.[ UNROLL 4; EOF ]);
        check_b "unroll complete" true (tokens "#pragma unroll" = Minicuda.Token.[ UNROLL 0; EOF ]);
        check_b "trip" true (tokens "#pragma trip 100" = Minicuda.Token.[ TRIP 100; EOF ]));
    t "lexing errors carry line numbers" (fun () ->
        check_b "raises" true
          (try
             ignore (tokens "a\nb\n@");
             false
           with Minicuda.Lexer.Error { line = 3; _ } -> true));
  ]

(* ------------------------------------------------------------------ *)

let parse1 = Minicuda.Parser.parse_one

let run_src ?(grid = (1, 1)) ?(block = (32, 1)) ~words src args_of =
  let k = parse1 src in
  let ptx = Ptx.Opt.run (Kir.Lower.lower k) in
  let d = Gpu.Device.create () in
  let out = Gpu.Device.alloc d words in
  let args = ("O", Gpu.Sim.Buf out) :: args_of d in
  ignore (Gpu.Sim.run ~mode:Gpu.Sim.Functional d { Gpu.Sim.kernel = ptx; grid; block; args });
  Gpu.Device.of_device d out

let parser_tests =
  [
    t "precedence: 1 + 2 * 3 == 7" (fun () ->
        let out =
          run_src ~words:1 "kernel k(global float O) { if (threadIdx_x == 0) { O[0] = 1.0 + 2.0 * 3.0; } }"
            (fun _ -> [])
        in
        check_b "7" true (out.(0) = 7.0));
    t "parentheses override precedence" (fun () ->
        let out =
          run_src ~words:1
            "kernel k(global float O) { if (threadIdx_x == 0) { O[0] = (1.0 + 2.0) * 3.0; } }"
            (fun _ -> [])
        in
        check_b "9" true (out.(0) = 9.0));
    t "ternary and comparisons" (fun () ->
        let out =
          run_src ~words:32
            "kernel k(global float O) { O[threadIdx_x] = threadIdx_x < 16 ? 1.0 : 2.0; }"
            (fun _ -> [])
        in
        check_b "split" true (out.(0) = 1.0 && out.(31) = 2.0));
    t "unary minus and not" (fun () ->
        let out =
          run_src ~words:1
            "kernel k(global float O) { if (!(threadIdx_x != 0)) { O[0] = -3.5; } }" (fun _ -> [])
        in
        check_b "neg" true (out.(0) = -3.5));
    t "+= on scalars and arrays" (fun () ->
        let out =
          run_src ~words:1
            {|kernel k(global float O) {
                if (threadIdx_x == 0) {
                  float s = 1.0; s += 2.0; O[0] = 0.0; O[0] += s;
                }
              }|}
            (fun _ -> [])
        in
        check_b "3" true (out.(0) = 3.0));
    t "builtins: sqrtf, minf, maxi, casts" (fun () ->
        let out =
          run_src ~words:4
            {|kernel k(global float O) {
                if (threadIdx_x == 0) {
                  O[0] = sqrtf(16.0);
                  O[1] = minf(3.0, 2.0);
                  O[2] = float(maxi(4, 7));
                  O[3] = float(int(3.75));
                }
              }|}
            (fun _ -> [])
        in
        check_b "values" true (out.(0) = 4.0 && out.(1) = 2.0 && out.(2) = 7.0 && out.(3) = 3.0));
    t "for loop variants: ++, +=k, i = i + k" (fun () ->
        let src upd =
          Printf.sprintf
            {|kernel k(global float O) {
                if (threadIdx_x == 0) {
                  float s = 0.0;
                  for (int i = 0; i < 10; %s) { s += 1.0; }
                  O[0] = s;
                }
              }|}
            upd
        in
        let count upd = (run_src ~words:1 (src upd) (fun _ -> [])).(0) in
        check_b "++" true (count "i++" = 10.0);
        check_b "+=2" true (count "i += 2" = 5.0);
        check_b "i=i+5" true (count "i = i + 5" = 2.0));
    t "pragma unroll is applied as a transformation" (fun () ->
        let src p =
          Printf.sprintf
            {|kernel k(global float O) {
                float s = 0.0;
                %s
                for (int i = 0; i < 16; i++) { s += float(i); }
                O[threadIdx_x] = s;
              }|}
            p
        in
        let size p = Ptx.Prog.static_size (Ptx.Opt.run (Kir.Lower.lower (parse1 (src p)))) in
        check_b "unrolled bigger statically" true (size "#pragma unroll 4" > size "");
        check_b "complete biggest" true (size "#pragma unroll" > size "#pragma unroll 4");
        (* and the value is unchanged *)
        let v p = (run_src ~words:32 (src p) (fun _ -> [])).(0) in
        check_b "same result" true (v "" = v "#pragma unroll 4" && v "" = v "#pragma unroll"));
    t "pragma trip annotates dynamic loops" (fun () ->
        let k =
          parse1
            {|kernel k(global float O, int n) {
                float s = 0.0;
                #pragma trip 50
                for (int i = 0; i < n; i++) { s += 1.0; }
                O[threadIdx_x] = s;
              }|}
        in
        let rec find = function
          | Kir.Ast.For l :: _ -> l.Kir.Ast.trip
          | _ :: tl -> find tl
          | [] -> None
        in
        check_b "trip recorded" true (find k.Kir.Ast.body = Some 50));
    t "shared declarations and barriers" (fun () ->
        let out =
          run_src ~words:32
            {|kernel k(global float O) {
                shared float s[32];
                s[threadIdx_x] = float(threadIdx_x);
                __syncthreads();
                O[threadIdx_x] = s[31 - threadIdx_x];
              }|}
            (fun _ -> [])
        in
        check_b "reversed" true (out.(0) = 31.0 && out.(31) = 0.0));
    t "scalar params resolve as Param, arrays as Ld/Store" (fun () ->
        let k = parse1 "kernel k(global float O, float a, int n) { O[n] = a; }" in
        check_i "scalars" 2 (List.length k.Kir.Ast.scalar_params);
        check_i "arrays" 1 (List.length k.Kir.Ast.array_params));
    t "multiple kernels per file" (fun () ->
        let ks =
          Minicuda.Parser.parse
            "kernel a(global float O) { O[0] = 1.0; } kernel b(global float O) { O[0] = 2.0; }"
        in
        check_i "two" 2 (List.length ks));
    t "parse errors carry context" (fun () ->
        List.iter
          (fun src ->
            check_b "raises" true
              (try
                 ignore (Minicuda.Parser.parse src);
                 false
               with Minicuda.Parser.Error _ | Kir.Typecheck.Type_error _ -> true))
          [
            "kernel k(global float O) { O[0] = ; }";
            "kernel k(global float O) { for (int i = 0; j < 4; i++) { } }";
            "kernel k(global float O) { O[0] = 1.0 + 1; }" (* type error *);
            "kernel k() { unknown(3.0); }";
            "kernel k(global float O) { O[0] = notdeclared; }";
          ]);
    t "every prefix of a source parses or raises a typed error" (fun () ->
        (* A file cut off anywhere (inside a parameter list, a statement
           or a block) must fail with a typed error, never with a read
           past the token array's EOF. *)
        let src =
          {|// y[i] = a * x[i] + y[i]
kernel saxpy(global float X, global float Y, float a, int n) {
  int gid = blockIdx_x * blockDim_x + threadIdx_x;
  if (gid >= n) { return; }
  Y[gid] = a * X[gid] + Y[gid];
}
kernel k(global float O, const float T, int n) {
  shared float s[32];
  float acc = 0.0f;
  #pragma unroll 2
  for (int i = 0; i < 4; i++) { acc += T[i] * 1.5e0; }
  s[threadIdx_x] = acc;
  __syncthreads();
  if (threadIdx_x < n) { O[threadIdx_x] = s[31 - threadIdx_x] > 0.0 ? sqrtf(acc) : -acc; }
  else { O[threadIdx_x] = minf(acc, float(n)); }
}
|}
        in
        check_i "whole source" 2 (List.length (Minicuda.Parser.parse src));
        for len = 0 to String.length src - 1 do
          match Minicuda.Parser.parse (String.sub src 0 len) with
          | _ -> ()
          | exception
              (Minicuda.Parser.Error _ | Minicuda.Lexer.Error _ | Kir.Typecheck.Type_error _) ->
            ()
          | exception e ->
            Alcotest.failf "prefix of %d bytes raised %s" len (Printexc.to_string e)
        done);
    t "elaborated kernels typecheck by construction" (fun () ->
        (* Parser.kernel runs Typecheck.check; a second run must agree. *)
        let k =
          parse1
            {|kernel k(global float X, global float O, float a) {
                int gid = blockIdx_x * blockDim_x + threadIdx_x;
                O[gid] = a * X[gid];
              }|}
        in
        Kir.Typecheck.check k);
  ]

let suite = [ ("lang.lexer", lexer_tests); ("lang.parser", parser_tests) ]
