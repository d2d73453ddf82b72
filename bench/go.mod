// The benchmark is a module of its own so that the repository's build
// (`go build ./... && go test ./...` at the root) neither compiles nor runs
// it; the module path stays under vmicache/ so it may import
// vmicache/internal/... from the checkout it sits in.
module vmicache/bench

go 1.22

require vmicache v0.0.0

replace vmicache => ../
